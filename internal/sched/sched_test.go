package sched

import (
	"math"
	"testing"

	"pvcsim/internal/hw"
	"pvcsim/internal/units"
)

// §II: "8 active hardware threads with 128 registers each, or 4 active
// hardware threads with 256 registers each".
func TestPVCRegisterPartitioning(t *testing.T) {
	res := PVCCoreResources()
	light := KernelShape{WorkGroups: 100, WorkGroupSize: 128, RegistersPerItem: 100}
	occ, err := ComputeOccupancy(res, light)
	if err != nil {
		t.Fatal(err)
	}
	if occ.ThreadsPerCore != 8 || occ.RegisterLimited {
		t.Errorf("≤128 regs: %+v, want 8 threads, not register limited", occ)
	}
	heavy := KernelShape{WorkGroups: 100, WorkGroupSize: 64, RegistersPerItem: 200}
	occ2, err := ComputeOccupancy(res, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if occ2.ThreadsPerCore != 4 || !occ2.RegisterLimited {
		t.Errorf(">128 regs: %+v, want 4 threads, register limited", occ2)
	}
	if occ2.Fraction != 0.5 {
		t.Errorf("heavy occupancy fraction = %v", occ2.Fraction)
	}
}

func TestValidation(t *testing.T) {
	res := PVCCoreResources()
	if _, err := ComputeOccupancy(res, KernelShape{WorkGroups: 0, WorkGroupSize: 16}); err == nil {
		t.Error("empty launch should fail")
	}
	if _, err := ComputeOccupancy(res, KernelShape{WorkGroups: 1, WorkGroupSize: 17}); err == nil {
		t.Error("non-multiple of sub-group width should fail")
	}
	if _, err := ComputeOccupancy(res, KernelShape{WorkGroups: 1, WorkGroupSize: 16, SLMPerGroup: 1 * units.MiB}); err == nil {
		t.Error("oversized SLM should fail")
	}
}

func TestSLMLimit(t *testing.T) {
	res := PVCCoreResources()
	k := KernelShape{WorkGroups: 100, WorkGroupSize: 16, SLMPerGroup: 64 * units.KiB}
	occ, err := ComputeOccupancy(res, k)
	if err != nil {
		t.Fatal(err)
	}
	// 128 KiB SLM / 64 KiB per group = 2 resident groups.
	if occ.GroupsPerCore != 2 || !occ.SLMLimited {
		t.Errorf("SLM-limited occupancy: %+v", occ)
	}
}

func TestDefaultRegisters(t *testing.T) {
	res := PVCCoreResources()
	occ, err := ComputeOccupancy(res, KernelShape{WorkGroups: 10, WorkGroupSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if occ.ThreadsPerCore < 1 {
		t.Error("default registers should give positive occupancy")
	}
}

func TestBigGroupSerializes(t *testing.T) {
	res := PVCCoreResources()
	// A 256-item group needs 16 sub-group threads but only 8 fit.
	k := KernelShape{WorkGroups: 4, WorkGroupSize: 256, RegistersPerItem: 64}
	occ, err := ComputeOccupancy(res, k)
	if err != nil {
		t.Fatal(err)
	}
	if occ.GroupsPerCore != 1 {
		t.Errorf("oversized group: %+v, want 1 group/core", occ)
	}
	if occ.ThreadsPerCore > 8 {
		t.Errorf("threads exceed hardware limit: %+v", occ)
	}
}

func TestWavesAndTail(t *testing.T) {
	res := PVCCoreResources()
	k := KernelShape{WorkGroups: 100, WorkGroupSize: 128, RegistersPerItem: 100}
	// 8 threads/core ÷ (128/16 = 8 threads per group) = 1 group/core;
	// 56 cores → 56 groups per wave → 100 groups = 2 waves, the second
	// 44/56 full.
	eff, err := TailEfficiency(res, k, 56)
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0 + 44.0/56.0) / 2.0
	if math.Abs(eff-want) > 1e-12 {
		t.Errorf("tail efficiency = %v, want %v", eff, want)
	}
	// Exact multiple: no tail.
	k.WorkGroups = 112
	eff2, _ := TailEfficiency(res, k, 56)
	if eff2 != 1.0 {
		t.Errorf("full waves should have no tail, got %v", eff2)
	}
}

func TestCoreResourcesFor(t *testing.T) {
	if CoreResourcesFor(hw.NewAuroraPVC()).HWThreads != 8 {
		t.Error("PVC resources")
	}
	if CoreResourcesFor(hw.NewH100()).HWThreads != 64 {
		t.Error("H100 resources")
	}
	if CoreResourcesFor(hw.NewMI250()).HWThreads != 40 {
		t.Error("MI250 resources")
	}
}

// The miniBUDE sweep mechanism: raising poses-per-work-item raises
// register pressure; past the 128-register budget occupancy halves,
// which is why the sweep has an interior optimum.
func TestPPWIOccupancyCliff(t *testing.T) {
	res := PVCCoreResources()
	regsFor := func(ppwi int) int { return 40 + 12*ppwi } // regression of the real kernel
	occ4, _ := ComputeOccupancy(res, KernelShape{WorkGroups: 64, WorkGroupSize: 128, RegistersPerItem: regsFor(4)})
	occ16, _ := ComputeOccupancy(res, KernelShape{WorkGroups: 64, WorkGroupSize: 128, RegistersPerItem: regsFor(16)})
	if !(occ4.ThreadsPerCore > occ16.ThreadsPerCore) {
		t.Errorf("ppwi=16 (%d threads) should occupy less than ppwi=4 (%d)",
			occ16.ThreadsPerCore, occ4.ThreadsPerCore)
	}
}
