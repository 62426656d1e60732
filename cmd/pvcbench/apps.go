package main

import (
	"flag"
	"fmt"
	"io"

	"pvcsim/internal/apps/hacc"
	"pvcsim/internal/apps/openmc"
	"pvcsim/internal/topology"
)

// runApps reports the mechanism analyses behind the two full science
// applications' rows of Table VI: OpenMC's effective cross-section
// access latency per architecture and HACC's GPU/CPU time breakdown.
// The rows themselves are Table VI of `pvcbench miniapps`. Both analyses
// call the application models directly and run no registry cell, so apps
// takes no -jobs or observability flags.
func runApps(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pvcbench apps", flag.ContinueOnError)
	fs.SetOutput(stderr)
	keff := fs.Bool("keff", false, "run the OpenMC eigenvalue (k-effective) demonstration and exit")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *keff {
		return runKeffDemo(stdout)
	}
	fmt.Fprintln(stdout, "OpenMC mechanism: effective cross-section access latency (300 MB working set)")
	for _, sys := range topology.AllSystems() {
		node := topology.NewNode(sys)
		fmt.Fprintf(stdout, "  %-12s %6.0f ns  (L2 per subdevice: %v)\n",
			sys, openmc.AccessLatencyNs(sys), node.GPU.Sub.Caches[1].Capacity.IEC())
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "HACC mechanism: step-time breakdown (GPU FP32 vs CPU memory bandwidth)")
	for _, sys := range topology.AllSystems() {
		g, c := hacc.Breakdown(sys)
		fmt.Fprintf(stdout, "  %-12s GPU %4.0f%%  CPU %4.0f%%\n", sys, g*100, c*100)
	}
	return nil
}

// runKeffDemo runs the power iteration across slab thicknesses and shows
// convergence to the analytic infinite-medium k.
func runKeffDemo(out io.Writer) error {
	mat := openmc.TwoGroupFuel()
	kInf, err := openmc.KInfinity(mat)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "two-group depleted-fuel material: analytic k-infinity = %.4f\n\n", kInf)
	fmt.Fprintln(out, "thickness [cm]   k-eff      sigma")
	for _, th := range []float64{3, 10, 30, 100, 1000} {
		res, err := openmc.SolveEigenvalue(openmc.EigenvalueOptions{
			Material: mat, Thickness: th, Particles: 4000, Inactive: 5, Active: 15, Seed: 42,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%10.0f      %7.4f   %7.4f\n", th, res.K, res.KStd)
	}
	fmt.Fprintln(out, "\nk-eff rises toward k-infinity as leakage vanishes with thickness.")
	return nil
}
