// Package prof is the profiling subsystem layered on internal/obs: it
// turns the raw span stream of a run into *explanations* — which
// resource ceiling each simulated span sat under, how much of every
// cell's simulated time each ceiling bound, and how that compares
// between two runs.
//
// The attribution taxonomy mirrors the paper's bound-resource analysis
// (Table V classifies every mini-app as compute- or memory-bound, and
// §IV attributes microbenchmarks to HBM, PCIe, MDFI, Xe-Link planes,
// and the TDP governor): model code stamps each span's Bound tag at
// record time — perfmodel decides compute-vs-memory and throttle, mem
// decides which cache level serves the working set, gpusim decides the
// transfer path, fabric carries the tag onto flow spans — and this
// package only aggregates. Everything here is derived from simulated
// quantities, so profiles and flamegraphs are byte-identical however
// many workers the runner uses; wall-clock exists only in the bench
// records (bench.go), clearly separated from simulated figures.
package prof

import (
	"strings"

	"pvcsim/internal/hw"
)

// The bound-resource tags model code attributes spans to. Compute and
// cache bounds are parameterized (by precision and level name); the
// rest are fixed identifiers.
const (
	// BoundHBM marks spans limited by device-memory bandwidth (the
	// triad ceiling, Table II row 3).
	BoundHBM = "hbm"
	// BoundPCIe marks host-device transfers on the per-card PCIe link
	// and host pools (Table II rows 4-6).
	BoundPCIe = "pcie"
	// BoundFabricLocal marks in-card stack-to-stack (MDFI) transfers.
	BoundFabricLocal = "fabric.local"
	// BoundFabricRemote marks plane-aligned Xe-Link/NVLink/IF peer
	// transfers (one hop).
	BoundFabricRemote = "fabric.remote"
	// BoundFabricXPlane marks cross-plane peer transfers that pay the
	// extra internal hop (§IV-A4).
	BoundFabricXPlane = "fabric.remote-xplane"
	// BoundFabricNode marks inter-node transfers over the cluster
	// network (NIC injection + switch fabric), the scale-out extension
	// of the paper's single-node fabric taxonomy.
	BoundFabricNode = "fabric.remote-node"
	// BoundPower marks compute spans whose governed clock sits below
	// MaxClock — the TDP/DVFS throttle of §IV-B2 is the binding
	// resource, not the pipeline itself.
	BoundPower = "power.throttle"
	// BoundLaunch marks kernels so small that fixed launch overhead
	// dominates both roofline terms (the left edge of the X18 sweep).
	BoundLaunch = "launch"
)

// BoundCompute returns the compute-ceiling tag for a precision, e.g.
// "compute.fp64".
func BoundCompute(p hw.Precision) string {
	return "compute." + strings.ToLower(p.String())
}

// BoundCache returns the cache-ceiling tag for a hierarchy level whose
// capacity holds the working set, e.g. "cache.l2".
func BoundCache(levelName string) string {
	return "cache." + strings.ToLower(levelName)
}
