package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pvcsim/internal/hw"
	"pvcsim/internal/power"
	"pvcsim/internal/topology"
)

// runNodeinfo prints the modeled single-node system inventories of
// Section III — CPUs, memory, GPUs, interconnects, power caps, Xe-Link
// plane tables and rank bindings — for comparing against the paper's
// system descriptions. It simulates nothing.
func runNodeinfo(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pvcbench nodeinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "", "one system (aurora|dawn|h100|mi250|frontier); default all")
	bindings := fs.Bool("bindings", false, "print the full rank-to-core binding table")
	config := fs.String("config", "", "describe a custom node from a JSON config `file` instead")
	if err := parse(fs, args); err != nil {
		return err
	}

	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			return err
		}
		defer f.Close()
		node, err := topology.LoadNodeConfig(f)
		if err != nil {
			return err
		}
		return describe(stdout, node, *bindings)
	}

	// nodeinfo is a what-if tool, so it describes the extended system
	// set (paper systems plus Frontier); the paper tables stay on
	// AllSystems.
	systems := topology.AllSystemsExtended()
	if *system != "" {
		sys, err := topology.ParseSystem(*system)
		if err != nil {
			return err
		}
		systems = []topology.System{sys}
	}
	for _, sys := range systems {
		if err := describe(stdout, topology.NewNode(sys), *bindings); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func describe(w io.Writer, node *topology.NodeSpec, withBindings bool) error {
	p := func(format string, a ...any) { fmt.Fprintf(w, format, a...) }
	p("=== %s ===\n", node.Name)
	cpu := node.CPU
	p("CPUs:      %d x %s, %d cores/%d threads total\n",
		cpu.Sockets, cpu.Model, cpu.TotalCores(), cpu.TotalCores()*cpu.ThreadsPerCore)
	p("Host mem:  %v DDR", cpu.DDR)
	if cpu.HBM > 0 {
		p(" + %v CPU HBM", cpu.HBM)
	}
	p(", %v/socket sustained\n", cpu.MemBWPerSocket)

	gpu := node.GPU
	p("GPUs:      %d x %s (%d subdevice(s) each, %d ranks in explicit scaling)\n",
		node.GPUCount, gpu.Name, gpu.SubCount, node.TotalStacks())
	p("  per sub: %d %ss, %v HBM at %v sustained (%v spec)\n",
		gpu.Sub.CoreCount, coreName(gpu), gpu.Sub.Memory, gpu.Sub.MemBWSustained, gpu.Sub.MemBWTheoretical)
	gov := power.NewGovernor(gpu)
	p("  power:   %g W cap/card; governed clocks: FP64 %v, FP32 %v, matrix %v (max %v)\n",
		gpu.PowerCapW,
		gov.OperatingClock(hw.VectorFP64), gov.OperatingClock(hw.VectorFP32),
		gov.OperatingClock(hw.MatrixLow), gpu.Power.MaxClock)
	p("  caches: ")
	for i, c := range gpu.Sub.Caches {
		if i > 0 {
			p(", ")
		}
		p("%s %v @ %.0f cycles", c.Name, c.Capacity.IEC(), c.LatencyCycles)
	}
	p("\n")
	p("  links:   host %s (%v uni, %.2fx duplex)",
		gpu.HostLink.Name, gpu.HostLink.Sustained(), gpu.HostLink.DuplexFactor)
	if gpu.SubCount > 1 {
		p("; internal %s (%v)", gpu.InternalLink.Name, gpu.InternalLink.Sustained())
	}
	p("; peer %s (%v)\n", gpu.PeerLink.Name, gpu.PeerLink.Sustained())
	p("Host pools: H2D %v, D2H %v, bidir %v\n",
		node.HostH2DPool, node.HostD2HPool, node.HostBidirPool)

	if len(node.Planes) > 0 {
		for i, plane := range node.Planes {
			ids := make([]string, len(plane))
			for j, s := range plane {
				ids[j] = s.String()
			}
			p("Xe-Link plane %d: %s\n", i, strings.Join(ids, ", "))
		}
		// The §IV-A4 routing example on Aurora-like tables.
		a, b := topology.StackID{GPU: 0, Stack: 0}, topology.StackID{GPU: 1, Stack: 0}
		p("Routing example: %v -> %v is %v\n", a, b, node.Route(a, b))
	}

	if withBindings {
		bind, err := node.BindRanks(node.TotalStacks())
		if err != nil {
			return err
		}
		p("Rank bindings (rank -> stack, socket, core):\n")
		for _, rb := range bind {
			p("  rank %2d -> %v socket %d core %d\n", rb.Rank, rb.Stack, rb.Socket, rb.Core)
		}
	}
	return nil
}

func coreName(gpu *hw.DeviceSpec) string {
	switch gpu.Vendor {
	case "Intel":
		return "Xe-Core"
	case "NVIDIA":
		return "SM"
	default:
		return "CU"
	}
}
