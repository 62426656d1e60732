// Package topology describes the four single-node systems of the paper's
// Section III — Aurora (6× PVC), Dawn (4× PVC), JLSE-H100 (4× H100) and
// JLSE-MI250 (4× MI250) — including CPUs, host memory, host-side transfer
// pools, the Xe-Link plane tables that govern remote stack routing, and
// the rank binding used by the microbenchmark framework ("binding the MPI
// ranks to the CPU closest to the GPU").
package topology

import (
	"fmt"
	"strconv"
	"strings"

	"pvcsim/internal/hw"
	"pvcsim/internal/units"
)

// System identifies one of the benchmarked systems.
type System int

const (
	Aurora System = iota
	Dawn
	JLSEH100
	JLSEMI250
	// Frontier is the paper's stated future-work comparison target
	// (§VII); it is not part of AllSystems because the paper publishes
	// no Frontier rows, but the model is ready for the follow-up study.
	Frontier
)

// String returns the system's name as used in the paper's tables.
func (s System) String() string {
	switch s {
	case Aurora:
		return "Aurora"
	case Dawn:
		return "Dawn"
	case JLSEH100:
		return "JLSE-H100"
	case JLSEMI250:
		return "JLSE-MI250"
	case Frontier:
		return "Frontier"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// AllSystems lists the four systems in the paper's column order.
func AllSystems() []System { return []System{Aurora, Dawn, JLSEH100, JLSEMI250} }

// AllSystemsExtended lists every modeled system: the four paper systems
// plus Frontier, the §VII future-work target. Sweep axis validation and
// what-if tooling accept this set; the paper tables stay on AllSystems.
func AllSystemsExtended() []System {
	return []System{Aurora, Dawn, JLSEH100, JLSEMI250, Frontier}
}

// ParseSystem resolves a user-supplied system name (command-line flag
// spelling or the paper's table spelling, case-insensitive) to a System.
// Unknown names produce an error listing the accepted spellings.
func ParseSystem(name string) (System, error) {
	switch strings.ToLower(name) {
	case "aurora":
		return Aurora, nil
	case "dawn":
		return Dawn, nil
	case "h100", "jlse-h100":
		return JLSEH100, nil
	case "mi250", "jlse-mi250":
		return JLSEMI250, nil
	case "frontier":
		return Frontier, nil
	default:
		return 0, fmt.Errorf("topology: unknown system %q (want aurora, dawn, h100, mi250 or frontier)", name)
	}
}

// CPUSpec describes the host processors of a node.
type CPUSpec struct {
	Model          string
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	DDR            units.Bytes    // total node DDR
	HBM            units.Bytes    // CPU-attached HBM (Aurora's Xeon Max), 0 elsewhere
	MemBWPerSocket units.ByteRate // sustained DDR bandwidth per socket
}

// TotalCores returns the node's physical core count.
func (c CPUSpec) TotalCores() int { return c.Sockets * c.CoresPerSocket }

// StackID addresses one GPU subdevice as GPU_ID.STACK_ID, the notation of
// §IV-A4.
type StackID struct {
	GPU   int
	Stack int
}

// String renders the paper's GPU.STACK notation.
func (s StackID) String() string { return strconv.Itoa(s.GPU) + "." + strconv.Itoa(s.Stack) }

// NodeSpec is a complete single-node system description.
type NodeSpec struct {
	System   System
	Name     string
	CPU      CPUSpec
	GPU      *hw.DeviceSpec
	GPUCount int

	// Host-side aggregate PCIe pools: concurrent transfers across all
	// cards additionally share these (root complex + host DRAM sinks).
	HostH2DPool   units.ByteRate
	HostD2HPool   units.ByteRate
	HostBidirPool units.ByteRate

	// Planes lists, for dual-stack all-to-all PVC systems, which stacks
	// share a Xe-Link plane; stacks in the same plane are one hop apart,
	// stacks in different planes (of different GPUs) need an extra hop.
	// Empty for systems without Xe-Link.
	Planes [][]StackID
}

// TotalStacks returns the node's subdevice count (ranks in the paper's
// "explicit scaling" mode: 12 on Aurora, 8 on Dawn and JLSE-MI250, 4 on
// JLSE-H100).
func (n *NodeSpec) TotalStacks() int { return n.GPUCount * n.GPU.SubCount }

// Subdevices enumerates every stack in GPU-major order, the rank order
// used throughout.
func (n *NodeSpec) Subdevices() []StackID {
	out := make([]StackID, 0, n.TotalStacks())
	for g := 0; g < n.GPUCount; g++ {
		for s := 0; s < n.GPU.SubCount; s++ {
			out = append(out, StackID{GPU: g, Stack: s})
		}
	}
	return out
}

// Validate checks structural consistency.
func (n *NodeSpec) Validate() error {
	if n.GPU == nil {
		return fmt.Errorf("topology: %s has no GPU spec", n.Name)
	}
	if n.GPUCount < 1 {
		return fmt.Errorf("topology: %s has %d GPUs", n.Name, n.GPUCount)
	}
	if n.CPU.Sockets < 1 || n.CPU.CoresPerSocket < 1 {
		return fmt.Errorf("topology: %s has invalid CPU spec", n.Name)
	}
	seen := map[StackID]bool{}
	for _, plane := range n.Planes {
		for _, s := range plane {
			if s.GPU < 0 || s.GPU >= n.GPUCount || s.Stack < 0 || s.Stack >= n.GPU.SubCount {
				return fmt.Errorf("topology: %s plane entry %v out of range", n.Name, s)
			}
			if seen[s] {
				return fmt.Errorf("topology: %s stack %v in multiple planes", n.Name, s)
			}
			seen[s] = true
		}
	}
	if len(n.Planes) > 0 && len(seen) != n.TotalStacks() {
		return fmt.Errorf("topology: %s planes cover %d of %d stacks", n.Name, len(seen), n.TotalStacks())
	}
	return nil
}

// PlaneOf returns the plane index of a stack, or -1 when the node has no
// plane table.
func (n *NodeSpec) PlaneOf(s StackID) int {
	for i, plane := range n.Planes {
		for _, m := range plane {
			if m == s {
				return i
			}
		}
	}
	return -1
}

// PathKind classifies the route between two subdevices.
type PathKind int

const (
	// SameStack means source and destination are identical.
	SameStack PathKind = iota
	// LocalStack is the in-card stack-to-stack (MDFI) path.
	LocalStack
	// RemoteDirect is one Xe-Link (or peer-link) hop: the stacks share a
	// plane.
	RemoteDirect
	// RemoteExtraHop needs an additional hop (via the peer stack's
	// partner or the local partner stack), the §IV-A4 caveat.
	RemoteExtraHop
	// RemoteNode crosses the inter-node network of a ClusterSpec: NIC
	// injection on both ends plus the switch fabric between them.
	RemoteNode
)

// String names the path kind.
func (k PathKind) String() string {
	switch k {
	case SameStack:
		return "same-stack"
	case LocalStack:
		return "local-stack"
	case RemoteDirect:
		return "remote-direct"
	case RemoteExtraHop:
		return "remote-extra-hop"
	case RemoteNode:
		return "remote-node"
	default:
		return fmt.Sprintf("PathKind(%d)", int(k))
	}
}

// Route classifies the path between two stacks. On systems without plane
// tables every cross-card path is RemoteDirect (all-to-all NVLink/IF).
func (n *NodeSpec) Route(a, b StackID) PathKind {
	if a == b {
		return SameStack
	}
	if a.GPU == b.GPU {
		return LocalStack
	}
	if len(n.Planes) == 0 {
		return RemoteDirect
	}
	if n.PlaneOf(a) == n.PlaneOf(b) {
		return RemoteDirect
	}
	return RemoteExtraHop
}

// SocketOf returns the CPU socket closest to a GPU: cards are split
// evenly across sockets in index order (Aurora: GPUs 0-2 on socket 0,
// 3-5 on socket 1).
func (n *NodeSpec) SocketOf(gpu int) int {
	perSocket := (n.GPUCount + n.CPU.Sockets - 1) / n.CPU.Sockets
	s := gpu / perSocket
	if s >= n.CPU.Sockets {
		s = n.CPU.Sockets - 1
	}
	return s
}

// RankBinding describes one MPI rank's placement in the paper's explicit
// scaling mode: one rank per stack, bound to the CPU socket closest to
// its GPU.
type RankBinding struct {
	Rank   int
	Stack  StackID
	Socket int
	Core   int
}

// BindRanks produces the rank → (stack, socket, core) map for nranks
// ranks, following §IV-A: cores 0 and CoresPerSocket are reserved for OS
// kernel threads, so binding starts at core 1 of each socket.
func (n *NodeSpec) BindRanks(nranks int) ([]RankBinding, error) {
	subs := n.Subdevices()
	if nranks < 1 || nranks > len(subs) {
		return nil, fmt.Errorf("topology: %s supports 1..%d ranks, got %d", n.Name, len(subs), nranks)
	}
	out := make([]RankBinding, nranks)
	nextCore := make([]int, n.CPU.Sockets) // per-socket next free core, skipping core 0
	for r := 0; r < nranks; r++ {
		st := subs[r]
		sock := n.SocketOf(st.GPU)
		nextCore[sock]++
		out[r] = RankBinding{
			Rank:   r,
			Stack:  st,
			Socket: sock,
			Core:   sock*n.CPU.CoresPerSocket + nextCore[sock],
		}
	}
	return out, nil
}

// NewAurora builds the Aurora node of §III: two 52-core Xeon Max CPUs
// with 64 GB HBM and 512 GB DDR5 each, six PVC at a 500 W cap, idle
// frequency pinned to 1.6 GHz, all-to-all Xe-Link in two planes.
func NewAurora() *NodeSpec {
	return &NodeSpec{
		System: Aurora,
		Name:   "Aurora",
		CPU: CPUSpec{
			Model:          "Intel Xeon CPU Max (52c/104t)",
			Sockets:        2,
			CoresPerSocket: 52,
			ThreadsPerCore: 2,
			DDR:            1024 * units.GB,
			HBM:            128 * units.GB,
			MemBWPerSocket: 220 * units.GBps,
		},
		GPU:      hw.NewAuroraPVC(),
		GPUCount: 6,
		// Measured full-node aggregates (Table II): H2D 329, D2H 264,
		// bidir 350 GB/s — the D2H pool is what caps full-node readback
		// at "40% scaling".
		HostH2DPool:   330 * units.GBps,
		HostD2HPool:   264 * units.GBps,
		HostBidirPool: 350 * units.GBps,
		// §IV-A4: "the two planes consist of 0.0, 1.1, 2.0, 3.0, 4.0,
		// 5.1 for the first plane and 0.1, 1.0, 2.1, 3.1, 4.1, 5.0 for
		// the second".
		Planes: [][]StackID{
			{{0, 0}, {1, 1}, {2, 0}, {3, 0}, {4, 0}, {5, 1}},
			{{0, 1}, {1, 0}, {2, 1}, {3, 1}, {4, 1}, {5, 0}},
		},
	}
}

// NewDawn builds the Dawn node of §III: two 48-core Xeon Platinum 8468
// CPUs with 1024 GB DDR total, four PVC at a 600 W cap.
func NewDawn() *NodeSpec {
	return &NodeSpec{
		System: Dawn,
		Name:   "Dawn",
		CPU: CPUSpec{
			Model:          "Intel Xeon Platinum 8468 (48c/96t)",
			Sockets:        2,
			CoresPerSocket: 48,
			ThreadsPerCore: 2,
			DDR:            1024 * units.GB,
			MemBWPerSocket: 250 * units.GBps,
		},
		GPU:      hw.NewDawnPVC(),
		GPUCount: 4,
		// Dawn's four cards nearly saturate their links without hitting
		// host limits (Table II: 218/212/285 GB/s).
		HostH2DPool:   218 * units.GBps,
		HostD2HPool:   212 * units.GBps,
		HostBidirPool: 285 * units.GBps,
		Planes: [][]StackID{
			{{0, 0}, {1, 1}, {2, 0}, {3, 1}},
			{{0, 1}, {1, 0}, {2, 1}, {3, 0}},
		},
	}
}

// NewJLSEH100 builds the JLSE H100 node: two Xeon Platinum 8468, 512 GB
// DDR5, four H100 SXM5 connected by NVLink.
func NewJLSEH100() *NodeSpec {
	return &NodeSpec{
		System: JLSEH100,
		Name:   "JLSE-H100",
		CPU: CPUSpec{
			Model:          "Intel Xeon Platinum 8468 (48c/96t)",
			Sockets:        2,
			CoresPerSocket: 48,
			ThreadsPerCore: 2,
			DDR:            512 * units.GB,
			MemBWPerSocket: 250 * units.GBps,
		},
		GPU:           hw.NewH100(),
		GPUCount:      4,
		HostH2DPool:   220 * units.GBps,
		HostD2HPool:   210 * units.GBps,
		HostBidirPool: 300 * units.GBps,
	}
}

// NewJLSEMI250 builds the JLSE MI250 node: two 64-core EPYC 7713, 512 GB
// DDR4, four MI250 (eight GCDs).
func NewJLSEMI250() *NodeSpec {
	return &NodeSpec{
		System: JLSEMI250,
		Name:   "JLSE-MI250",
		CPU: CPUSpec{
			Model:          "AMD EPYC 7713 (64c/128t)",
			Sockets:        2,
			CoresPerSocket: 64,
			ThreadsPerCore: 2,
			DDR:            512 * units.GB,
			MemBWPerSocket: 190 * units.GBps,
		},
		GPU:           hw.NewMI250(),
		GPUCount:      4,
		HostH2DPool:   160 * units.GBps,
		HostD2HPool:   150 * units.GBps,
		HostBidirPool: 220 * units.GBps,
	}
}

// NewFrontier builds a Frontier node per Atchley et al. [13]: one
// 64-core EPYC 7A53 "Trento", 512 GB DDR4, and four MI250X (eight GCDs),
// each GCD with a dedicated host link. It supports the §VII future-work
// comparison against Dawn and Aurora.
func NewFrontier() *NodeSpec {
	return &NodeSpec{
		System: Frontier,
		Name:   "Frontier",
		CPU: CPUSpec{
			Model:          "AMD EPYC 7A53 (64c/128t)",
			Sockets:        1,
			CoresPerSocket: 64,
			ThreadsPerCore: 2,
			DDR:            512 * units.GB,
			MemBWPerSocket: 205 * units.GBps,
		},
		GPU:      hw.NewMI250X(),
		GPUCount: 4,
		// Frontier's per-GCD ESM links give the node more host
		// bandwidth headroom than the JLSE MI250 box.
		HostH2DPool:   200 * units.GBps,
		HostD2HPool:   190 * units.GBps,
		HostBidirPool: 280 * units.GBps,
	}
}

// NewNode returns the standard node for a system.
func NewNode(s System) *NodeSpec {
	switch s {
	case Aurora:
		return NewAurora()
	case Dawn:
		return NewDawn()
	case JLSEH100:
		return NewJLSEH100()
	case JLSEMI250:
		return NewJLSEMI250()
	case Frontier:
		return NewFrontier()
	default:
		return nil
	}
}
