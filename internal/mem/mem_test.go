package mem

import (
	"math"
	"testing"
	"testing/quick"

	"pvcsim/internal/hw"
	"pvcsim/internal/units"
)

func pvcHier() *Hierarchy  { return NewHierarchy(&hw.NewAuroraPVC().Sub) }
func h100Hier() *Hierarchy { return NewHierarchy(&hw.NewH100().Sub) }

func TestLadderPlateaus(t *testing.T) {
	h := pvcHier()
	// Deep inside L1 the latency is the L1 latency.
	if got := h.AvgLatencyCycles(16 * units.KiB); math.Abs(got-61) > 0.01 {
		t.Errorf("16KiB latency = %v, want 61 (L1)", got)
	}
	// Footprints at/below the L1 capacity stay at L1 latency.
	if got := h.AvgLatencyCycles(512 * units.KiB); math.Abs(got-61) > 0.01 {
		t.Errorf("512KiB latency = %v, want 61", got)
	}
	// Far beyond L2 the latency approaches HBM.
	if got := h.AvgLatencyCycles(32 * units.GB); math.Abs(got-810) > 15 {
		t.Errorf("32GB latency = %v, want ~810 (HBM)", got)
	}
	// Zero/negative footprint degenerates to L1.
	if got := h.AvgLatencyCycles(0); got != 61 {
		t.Errorf("0 footprint = %v", got)
	}
}

func TestLadderMonotonic(t *testing.T) {
	h := pvcHier()
	prev := 0.0
	for w := 1 * units.KiB; w <= 64*units.GB; w *= 2 {
		got := h.AvgLatencyCycles(w)
		if got < prev-1e-9 {
			t.Fatalf("latency not monotonic at %v: %v < %v", w, got, prev)
		}
		prev = got
	}
}

// Between L1 and L2 capacity the expected latency blends the two: at 1 MiB
// on PVC (2× the 512 KiB L1), the random-replacement fixed point gives an
// L1 hit rate of h = exp(−2(1−h)) ≈ 0.203.
func TestLadderBlending(t *testing.T) {
	h := pvcHier()
	got := h.AvgLatencyCycles(1 * units.MiB)
	want := 0.2032*61 + (1-0.2032)*390 // ≈ 323
	if math.Abs(got-want) > 1.0 {
		t.Errorf("1MiB latency = %v, want %v", got, want)
	}
}

func TestLevelFor(t *testing.T) {
	h := pvcHier()
	if h.LevelFor(100*units.KiB).Name != "L1" {
		t.Error("100KiB should be L1")
	}
	if h.LevelFor(100*units.MiB).Name != "L2" {
		t.Error("100MiB should be L2")
	}
	if h.LevelFor(100*units.GB).Name != "HBM" {
		t.Error("oversized should be HBM")
	}
}

func TestRingSingleCycle(t *testing.T) {
	for _, n := range []int{2, 3, 17, 1024} {
		r, err := NewRing(n, 64, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !r.IsSingleCycle() {
			t.Fatalf("n=%d: not a single cycle", n)
		}
		if r.Footprint() != units.Bytes(n)*64 {
			t.Errorf("n=%d footprint = %v", n, r.Footprint())
		}
	}
	if _, err := NewRing(1, 64, 0); err == nil {
		t.Error("ring of 1 should fail")
	}
}

func TestRingDeterministic(t *testing.T) {
	a, _ := NewRing(256, 64, 7)
	b, _ := NewRing(256, 64, 7)
	for i := range a.Next {
		if a.Next[i] != b.Next[i] {
			t.Fatal("same seed must give same ring")
		}
	}
	c, _ := NewRing(256, 64, 8)
	same := true
	for i := range a.Next {
		if a.Next[i] != c.Next[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different rings")
	}
}

func TestWalkFullLapReturnsToStart(t *testing.T) {
	r, _ := NewRing(333, 64, 1)
	if got := r.Walk(333); got != 0 {
		t.Errorf("full lap ended at %d, want 0", got)
	}
	if got := r.Walk(0); got != 0 {
		t.Errorf("zero hops = %d", got)
	}
}

func TestWalkCoalesced(t *testing.T) {
	r, _ := NewRing(1024, 64, 3)
	// A full lap with any width must return each walker to its start, so
	// the checksum equals the starting checksum.
	sumStart := r.WalkCoalesced(0, 16)
	sumLap := r.WalkCoalesced(1024, 16)
	if sumStart != sumLap {
		t.Errorf("coalesced full lap checksum %d != start %d", sumLap, sumStart)
	}
	// width < 1 clamps.
	_ = r.WalkCoalesced(10, 0)
}

func TestAddresses(t *testing.T) {
	r, _ := NewRing(16, 128, 5)
	addrs := r.Addresses(16)
	if addrs[0] != 0 {
		t.Error("first address should be node 0")
	}
	seen := map[int64]bool{}
	for _, a := range addrs {
		if a%128 != 0 {
			t.Errorf("address %d not stride-aligned", a)
		}
		if seen[a] {
			t.Errorf("address %d repeated within one lap", a)
		}
		seen[a] = true
	}
}

func TestCacheSimSmallWorkingSetHitsL1(t *testing.T) {
	h := &Hierarchy{LineSize: 64, Levels: []hw.CacheLevel{
		{Name: "L1", Capacity: 8 * units.KiB, LatencyCycles: 10},
		{Name: "L2", Capacity: 64 * units.KiB, LatencyCycles: 100},
		{Name: "MEM", Capacity: 1 * units.GB, LatencyCycles: 500},
	}}
	cs := NewCacheSim(h, 8, PolicyRandom)
	r, _ := NewRing(64, 64, 9) // 4 KiB fits in L1
	avg := SimulateChase(r, cs, 3)
	if math.Abs(avg-10) > 0.01 {
		t.Errorf("in-L1 chase latency = %v, want 10", avg)
	}
}

func TestCacheSimLargeWorkingSetMissesToMemory(t *testing.T) {
	h := &Hierarchy{LineSize: 64, Levels: []hw.CacheLevel{
		{Name: "L1", Capacity: 4 * units.KiB, LatencyCycles: 10},
		{Name: "L2", Capacity: 16 * units.KiB, LatencyCycles: 100},
		{Name: "MEM", Capacity: 1 * units.GB, LatencyCycles: 500},
	}}
	cs := NewCacheSim(h, 8, PolicyRandom)
	r, _ := NewRing(4096, 64, 11) // 256 KiB >> L2
	avg := SimulateChase(r, cs, 1)
	// Nearly every access should miss to memory; allow the small cached
	// fraction (20 KiB of cache over 256 KiB working set ≈ 8%).
	if avg < 450 {
		t.Errorf("way-oversized chase latency = %v, want near 500", avg)
	}
	memHits := cs.hits[len(cs.hits)-1]
	if memHits == 0 {
		t.Error("expected memory accesses")
	}
}

// The analytic ladder and the execution-driven random-replacement
// simulator must agree for working sets between the cache capacities.
func TestAnalyticMatchesSimulator(t *testing.T) {
	h := &Hierarchy{LineSize: 64, Levels: []hw.CacheLevel{
		{Name: "L1", Capacity: 16 * units.KiB, LatencyCycles: 20},
		{Name: "L2", Capacity: 128 * units.KiB, LatencyCycles: 200},
		{Name: "MEM", Capacity: 1 * units.GB, LatencyCycles: 800},
	}}
	for _, nodes := range []int{512 /*32KiB*/, 1024 /*64KiB*/, 4096 /*256KiB*/} {
		cs := NewCacheSim(h, 16, PolicyRandom)
		r, _ := NewRing(nodes, 64, int64(nodes))
		simAvg := SimulateChase(r, cs, 4)
		ana := h.AvgLatencyCycles(units.Bytes(nodes) * 64)
		if rel := math.Abs(simAvg-ana) / ana; rel > 0.15 {
			t.Errorf("nodes=%d: simulator %v vs analytic %v (rel %.2f)", nodes, simAvg, ana, rel)
		}
	}
}

// The LRU ablation: a cyclic chase one step larger than the cache
// capacity thrashes strict LRU completely — every access misses.
func TestLRUCyclicThrash(t *testing.T) {
	h := &Hierarchy{LineSize: 64, Levels: []hw.CacheLevel{
		{Name: "L1", Capacity: 16 * units.KiB, LatencyCycles: 20},
		{Name: "MEM", Capacity: 1 * units.GB, LatencyCycles: 800},
	}}
	cs := NewCacheSim(h, 16, PolicyLRU)
	r, _ := NewRing(512, 64, 13) // 32 KiB = 2× L1
	avg := SimulateChase(r, cs, 2)
	if avg < 790 {
		t.Errorf("LRU cyclic chase avg = %v, want ~800 (total thrash)", avg)
	}
	// The same working set under random replacement retains ~20% hits.
	cs2 := NewCacheSim(h, 16, PolicyRandom)
	r2, _ := NewRing(512, 64, 13)
	avg2 := SimulateChase(r2, cs2, 4)
	if avg2 >= avg {
		t.Errorf("random replacement (%v) should beat LRU (%v) on cyclic chase", avg2, avg)
	}
}

func TestCacheSimAccessCountsConsistent(t *testing.T) {
	cs := NewCacheSim(pvcHier(), 8, PolicyRandom)
	r, _ := NewRing(128, 64, 2)
	SimulateChase(r, cs, 2)
	total := int64(0)
	for _, c := range cs.hits {
		total += c
	}
	if total != cs.Accesses() {
		t.Errorf("hit counts sum %d != accesses %d", total, cs.Accesses())
	}
	if cs.Accesses() != int64(3*128) { // warmup + 2 laps
		t.Errorf("accesses = %d, want 384", cs.Accesses())
	}
}

func TestCacheSimZeroAccesses(t *testing.T) {
	cs := NewCacheSim(pvcHier(), 0, PolicyLRU) // ways<1 clamps to 8
	if cs.Accesses() != 0 || cs.cycles != 0 {
		t.Errorf("fresh simulator: %d accesses, %v cycles, want 0/0", cs.Accesses(), cs.cycles)
	}
	if cs.levels[0].ways != 8 {
		t.Errorf("ways = %d, want the clamp to 8", cs.levels[0].ways)
	}
}

// Figure 1's qualitative claims, checked against the analytic ladders:
// PVC's L1 latency is higher than H100's but its capacity larger, so for
// footprints between 256 KiB and 512 KiB PVC is *faster* than H100 (H100
// has spilled to L2, PVC has not) — the crossover visible in the figure.
func TestPVCvsH100CrossoverNearL1Capacity(t *testing.T) {
	pvc, h100 := pvcHier(), h100Hier()
	// Small footprint: H100 L1 wins.
	if !(h100.AvgLatencyCycles(64*units.KiB) < pvc.AvgLatencyCycles(64*units.KiB)) {
		t.Error("at 64KiB H100 should be faster")
	}
	// 448 KiB: inside PVC L1 (512 KiB), outside H100 L1 (256 KiB).
	pvcLat := pvc.AvgLatencyCycles(448 * units.KiB)
	h100Lat := h100.AvgLatencyCycles(448 * units.KiB)
	if !(pvcLat < h100Lat) {
		t.Errorf("at 448KiB PVC (%v) should beat H100 (%v)", pvcLat, h100Lat)
	}
}

// Property: the analytic ladder is bounded by the first and last level
// latencies for any footprint.
func TestLadderBoundsProperty(t *testing.T) {
	h := pvcHier()
	lo := h.Levels[0].LatencyCycles
	hi := h.Levels[len(h.Levels)-1].LatencyCycles
	f := func(raw uint32) bool {
		w := units.Bytes(raw%(1<<30) + 1)
		got := h.AvgLatencyCycles(w)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every generated ring is a single cycle.
func TestRingCycleProperty(t *testing.T) {
	f := func(nRaw uint16, seed int64) bool {
		n := int(nRaw%2000) + 2
		r, err := NewRing(n, 64, seed)
		if err != nil {
			return false
		}
		return r.IsSingleCycle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
