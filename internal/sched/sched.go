// Package sched models GPU work-group scheduling and occupancy on the
// architectures of the paper. Section II describes the PVC mechanism it
// captures: each Xe-Core has a 512 KB register file that "can be
// partitioned among hardware threads in two different ways: with 8 active
// hardware threads with 128 registers each, or 4 active hardware threads
// with 256 registers each" — so a kernel's register demand halves the
// thread occupancy once it exceeds 128 registers, and low occupancy
// starves the latency-hiding the memory system needs.
//
// The package computes achievable occupancy for a kernel launch
// (registers, SLM, work-group size), dispatches work-groups over cores in
// waves, and derates effective throughput for latency-bound kernels —
// the mechanism behind miniBUDE's poses-per-work-item tuning sweep.
//
//pvclint:ignore testonly DESIGN §3 X7 occupancy model (sched): wave tails, latency hiding
package sched

import (
	"fmt"
	"math"

	"pvcsim/internal/hw"
	"pvcsim/internal/units"
)

// CoreResources describes one compute core's schedulable resources.
type CoreResources struct {
	// HWThreads is the maximum resident hardware threads (PVC Xe-Core: 8
	// at ≤128 registers; SM: 64 warps; CU: 40 wavefronts).
	HWThreads int
	// RegistersPerThreadBase is the register budget per thread at full
	// occupancy (PVC: 128 × 512-bit registers).
	RegistersPerThreadBase int
	// RegisterFile is the total per-core register file in bytes.
	RegisterFile units.Bytes
	// SIMDWidth is the lanes per hardware thread (PVC sub-group 16).
	SIMDWidth int
	// SLM is the shared local memory per core.
	SLM units.Bytes
}

// PVCCoreResources returns the Xe-Core schedulable resources of §II.
func PVCCoreResources() CoreResources {
	return CoreResources{
		HWThreads:              8,
		RegistersPerThreadBase: 128,
		RegisterFile:           512 * units.KiB,
		SIMDWidth:              16,
		SLM:                    128 * units.KiB,
	}
}

// H100CoreResources returns per-SM resources.
func H100CoreResources() CoreResources {
	return CoreResources{
		HWThreads:              64, // warps
		RegistersPerThreadBase: 255,
		RegisterFile:           256 * units.KiB,
		SIMDWidth:              32,
		SLM:                    228 * units.KiB,
	}
}

// MI250CoreResources returns per-CU resources.
func MI250CoreResources() CoreResources {
	return CoreResources{
		HWThreads:              40, // wavefronts
		RegistersPerThreadBase: 256,
		RegisterFile:           512 * units.KiB,
		SIMDWidth:              64,
		SLM:                    64 * units.KiB,
	}
}

// CoreResourcesFor selects the resource model matching a device.
func CoreResourcesFor(dev *hw.DeviceSpec) CoreResources {
	switch dev.Vendor {
	case "Intel":
		return PVCCoreResources()
	case "NVIDIA":
		return H100CoreResources()
	default:
		return MI250CoreResources()
	}
}

// KernelShape describes a kernel launch's per-thread resource demands.
type KernelShape struct {
	WorkGroups         int
	WorkGroupSize      int         // work-items per group
	RegistersPerItem   int         // architectural registers per work-item
	SLMPerGroup        units.Bytes // shared local memory per work-group
	ItemsPerThreadHint int         // e.g. miniBUDE's poses-per-work-item
}

// Validate checks the launch configuration.
func (k KernelShape) Validate(res CoreResources) error {
	if k.WorkGroups < 1 || k.WorkGroupSize < 1 {
		return fmt.Errorf("sched: empty launch %dx%d", k.WorkGroups, k.WorkGroupSize)
	}
	if k.WorkGroupSize%res.SIMDWidth != 0 {
		return fmt.Errorf("sched: work-group size %d not a multiple of the sub-group width %d",
			k.WorkGroupSize, res.SIMDWidth)
	}
	if k.SLMPerGroup > res.SLM {
		return fmt.Errorf("sched: work-group needs %v SLM, core has %v", k.SLMPerGroup, res.SLM)
	}
	return nil
}

// Occupancy is the outcome of the occupancy calculation.
type Occupancy struct {
	ThreadsPerCore  int     // resident hardware threads
	GroupsPerCore   int     // resident work-groups
	Fraction        float64 // threads / max threads
	RegisterLimited bool
	SLMLimited      bool
}

// ComputeOccupancy determines how many hardware threads of a kernel fit
// on one core. On PVC the register file supports 8 threads at ≤128
// registers or 4 at ≤256 (§II); the general rule is
// floor(maxThreads / ceil(regs/base)) threads, further capped by SLM.
func ComputeOccupancy(res CoreResources, k KernelShape) (Occupancy, error) {
	if err := k.Validate(res); err != nil {
		return Occupancy{}, err
	}
	regs := k.RegistersPerItem
	if regs < 1 {
		regs = 32
	}
	regFactor := (regs + res.RegistersPerThreadBase - 1) / res.RegistersPerThreadBase
	if regFactor < 1 {
		regFactor = 1
	}
	threads := res.HWThreads / regFactor
	regLimited := regFactor > 1
	if threads < 1 {
		threads = 1
	}
	// Threads per work-group (sub-groups per group).
	threadsPerGroup := k.WorkGroupSize / res.SIMDWidth
	groups := threads / threadsPerGroup
	slmLimited := false
	if k.SLMPerGroup > 0 {
		maxBySLM := int(res.SLM / k.SLMPerGroup)
		if maxBySLM < groups {
			groups = maxBySLM
			slmLimited = true
		}
	}
	if groups < 1 {
		groups = 1
		// One group always fits; its threads may exceed the register
		// budget in which case the hardware serializes sub-groups.
		if threadsPerGroup < threads {
			threads = threadsPerGroup
		}
	} else {
		threads = groups * threadsPerGroup
		if threads > res.HWThreads/regFactor {
			threads = res.HWThreads / regFactor
		}
	}
	return Occupancy{
		ThreadsPerCore:  threads,
		GroupsPerCore:   groups,
		Fraction:        float64(threads) / float64(res.HWThreads),
		RegisterLimited: regLimited,
		SLMLimited:      slmLimited,
	}, nil
}

// Waves returns how many dispatch waves the launch needs on coreCount
// cores: ceil(workGroups / (groupsPerCore × cores)). Partial final waves
// are the classic occupancy "tail effect".
func Waves(res CoreResources, k KernelShape, coreCount int) (int, error) {
	occ, err := ComputeOccupancy(res, k)
	if err != nil {
		return 0, err
	}
	perWave := occ.GroupsPerCore * coreCount
	if perWave < 1 {
		perWave = coreCount
	}
	return (k.WorkGroups + perWave - 1) / perWave, nil
}

// TailEfficiency returns the utilization loss from the final partial
// wave: fullWaves + fraction over total waves.
func TailEfficiency(res CoreResources, k KernelShape, coreCount int) (float64, error) {
	occ, err := ComputeOccupancy(res, k)
	if err != nil {
		return 0, err
	}
	perWave := occ.GroupsPerCore * coreCount
	if perWave < 1 {
		perWave = coreCount
	}
	full := k.WorkGroups / perWave
	rem := k.WorkGroups % perWave
	if rem == 0 {
		return 1.0, nil
	}
	waves := float64(full) + 1
	useful := float64(full) + float64(rem)/float64(perWave)
	return useful / waves, nil
}

// LatencyHidingEfficiency estimates how much of a memory-latency-bound
// kernel's ideal throughput the occupancy sustains: with t resident
// threads issuing a request every issueCycles and memLatency cycles to
// serve it, throughput saturates once t ≥ memLatency/issueCycles
// (Little's law); below that it scales linearly.
func LatencyHidingEfficiency(occ Occupancy, memLatencyCycles, issueCycles float64) float64 {
	if issueCycles <= 0 {
		issueCycles = 4
	}
	needed := memLatencyCycles / issueCycles
	if needed <= 0 {
		return 1
	}
	eff := float64(occ.ThreadsPerCore) / needed
	return math.Min(1, eff)
}
