// Package mem models a GPU's on-device memory hierarchy as observed by the
// lats pointer-chase benchmark (Figure 1 of the paper). It provides two
// complementary models:
//
//   - an analytic ladder (AvgLatencyCycles) based on the steady-state hit
//     rate of a cyclic random-permutation chase against random-replacement
//     caches — the fixed point h = exp(−(1−h)·W/C) per level — giving the
//     smooth staircase of the figure; and
//
//   - a concrete set-associative cache simulator (CacheSim, with LRU and
//     random replacement policies) that replays an actual address stream.
//     Tests validate the analytic model against the simulator, so the fast
//     ladder used by the figure sweep is backed by a mechanistic model.
package mem

import (
	"math"
	"math/rand"

	"pvcsim/internal/hw"
	"pvcsim/internal/obs"
	"pvcsim/internal/units"
)

// Hierarchy is an ordered memory hierarchy (innermost first; the final
// level is backing memory and must be able to hold any footprint).
// Setting Obs records each ladder evaluation: mem.ladder_lookups plus
// the per-level served fractions (mem.served.<level>).
type Hierarchy struct {
	Levels   []hw.CacheLevel
	LineSize units.Bytes
	Obs      obs.Recorder
}

// NewHierarchy builds a hierarchy from a subdevice spec with the
// conventional 64-byte line size.
func NewHierarchy(sub *hw.SubdeviceSpec) *Hierarchy {
	return &Hierarchy{Levels: sub.Caches, LineSize: 64}
}

// residentFraction returns the steady-state hit rate of a cyclic
// random-permutation chase over a working set W against a cache of
// capacity C with (pseudo-)random replacement — the policy GPU caches
// approximate. Each of the n(1−h) misses per lap evicts a uniformly
// random resident line, so a line survives until its next visit with
// probability exp(−(1−h)·W/C), giving the fixed point
//
//	h = exp(−(1−h)·W/C),
//
// which is 1 for W ≤ C and decays smoothly toward 0 beyond capacity.
func residentFraction(w, c float64) float64 {
	if c <= 0 {
		return 0
	}
	if w <= c {
		return 1
	}
	k := w / c
	h := 0.0
	for i := 0; i < 100; i++ {
		nh := math.Exp(-(1 - h) * k)
		if math.Abs(nh-h) < 1e-12 {
			return nh
		}
		h = nh
	}
	return h
}

// AvgLatencyCycles returns the expected per-access load-to-use latency, in
// cycles, of a random-permutation pointer chase over a working set of the
// given footprint. With an inclusive hierarchy, the fraction of accesses
// served by level i is residentFraction(W, C_i) − residentFraction(W,
// C_{i−1}); the outermost (memory) level serves the remainder.
func (h *Hierarchy) AvgLatencyCycles(footprint units.Bytes) float64 {
	if footprint <= 0 {
		return h.Levels[0].LatencyCycles
	}
	total := 0.0
	prev := 0.0
	for i, lv := range h.Levels {
		frac := 1.0
		if i < len(h.Levels)-1 { // last level serves everything left
			frac = residentFraction(float64(footprint), float64(lv.Capacity))
		}
		if frac > prev {
			total += (frac - prev) * lv.LatencyCycles
			if h.Obs != nil {
				h.Obs.Add("mem.served."+lv.Name, frac-prev)
			}
			prev = frac
		}
		if prev >= 1 {
			break
		}
	}
	obs.Count(h.Obs, "mem.ladder_lookups", 1)
	return total
}

// LevelFor returns the innermost level that can hold the footprint.
func (h *Hierarchy) LevelFor(footprint units.Bytes) hw.CacheLevel {
	for _, lv := range h.Levels {
		if footprint <= lv.Capacity {
			return lv
		}
	}
	return h.Levels[len(h.Levels)-1]
}

// CacheResident returns the innermost *cache* level whose capacity
// holds the footprint and true; a footprint that spills past the last
// cache is served by the outermost (backing-memory) level, returned
// with false. perfmodel uses this to attribute memory-bound kernels to
// the cache ceiling that actually serves their working set.
func (h *Hierarchy) CacheResident(footprint units.Bytes) (hw.CacheLevel, bool) {
	for i, lv := range h.Levels {
		if i == len(h.Levels)-1 {
			break
		}
		if footprint <= lv.Capacity {
			return lv, true
		}
	}
	return h.Levels[len(h.Levels)-1], false
}

// CacheSim is a multi-level set-associative cache simulator. It is an
// execution-driven cross-check for the analytic ladder: feed it the chase
// address stream and it reports which level served each access.
type CacheSim struct {
	levels   []*simLevel
	memLat   float64
	lineSize int64
	accesses int64
	cycles   float64
	hits     []int64 // per level, plus memory at the end
}

// ReplacementPolicy selects how a set victim is chosen on fill.
type ReplacementPolicy int

const (
	// PolicyLRU is strict least-recently-used. A cyclic chase longer than
	// the capacity thrashes it completely (0% hits) — the textbook LRU
	// pathology, kept available as an ablation.
	PolicyLRU ReplacementPolicy = iota
	// PolicyRandom evicts a uniformly random way, the behaviour GPU
	// caches approximate and the one the analytic ladder models.
	PolicyRandom
)

type simLevel struct {
	name   string
	sets   int64
	ways   int
	lat    float64
	policy ReplacementPolicy
	rng    *rand.Rand
	tags   [][]int64 // per set, MRU-first tag list
}

// NewCacheSim builds a simulator from the hierarchy with the given
// associativity and replacement policy for every cache level (the last
// hierarchy level is treated as backing memory).
func NewCacheSim(h *Hierarchy, ways int, policy ReplacementPolicy) *CacheSim {
	if ways < 1 {
		ways = 8
	}
	line := int64(h.LineSize)
	cs := &CacheSim{lineSize: line}
	n := len(h.Levels)
	for i, lv := range h.Levels {
		if i == n-1 {
			cs.memLat = lv.LatencyCycles
			break
		}
		lines := int64(lv.Capacity) / line
		sets := lines / int64(ways)
		if sets < 1 {
			sets = 1
		}
		sl := &simLevel{
			name: lv.Name, sets: sets, ways: ways, lat: lv.LatencyCycles,
			policy: policy, rng: rand.New(rand.NewSource(int64(i) + 1)),
		}
		sl.tags = make([][]int64, sets)
		cs.levels = append(cs.levels, sl)
	}
	cs.hits = make([]int64, len(cs.levels)+1)
	return cs
}

// Access simulates one load at byte address addr and returns the latency
// in cycles of the level that served it. Lines are filled into every level
// on the way in (inclusive hierarchy).
func (c *CacheSim) Access(addr int64) float64 {
	tag := addr / c.lineSize
	served := -1
	var lat float64
	for i, lv := range c.levels {
		if lv.lookup(tag) {
			served = i
			lat = lv.lat
			break
		}
	}
	if served == -1 {
		lat = c.memLat
		c.hits[len(c.levels)]++
	} else {
		c.hits[served]++
	}
	// Fill/promote into all levels above (and including) the serving one.
	upto := served
	if upto == -1 {
		upto = len(c.levels) - 1
	}
	for i := 0; i <= upto; i++ {
		c.levels[i].insert(tag)
	}
	c.accesses++
	c.cycles += lat
	return lat
}

func (l *simLevel) set(tag int64) int64 {
	s := tag % l.sets
	if s < 0 {
		s = -s
	}
	return s
}

// lookup reports whether tag is resident and promotes it to MRU.
func (l *simLevel) lookup(tag int64) bool {
	s := l.set(tag)
	ts := l.tags[s]
	for i, t := range ts {
		if t == tag {
			copy(ts[1:i+1], ts[:i])
			ts[0] = tag
			return true
		}
	}
	return false
}

// insert places tag into its set, evicting per the replacement policy if
// the set is full.
func (l *simLevel) insert(tag int64) {
	s := l.set(tag)
	ts := l.tags[s]
	for i, t := range ts {
		if t == tag {
			copy(ts[1:i+1], ts[:i])
			ts[0] = tag
			return
		}
	}
	if len(ts) < l.ways {
		// Free way available: prepend as MRU.
		ts = append(ts, 0)
		copy(ts[1:], ts)
		ts[0] = tag
		l.tags[s] = ts
		return
	}
	switch l.policy {
	case PolicyRandom:
		ts[l.rng.Intn(len(ts))] = tag
	default: // PolicyLRU: evict the tail, insert at MRU
		copy(ts[1:], ts)
		ts[0] = tag
	}
}

// Accesses returns the number of simulated accesses.
func (c *CacheSim) Accesses() int64 { return c.accesses }

// ReportTo dumps the simulator's aggregate statistics onto a recorder as
// counters (cache.accesses plus cache.hits.<level>). Recording the
// totals once, instead of instrumenting Access, keeps the per-access
// hot loop untouched.
func (c *CacheSim) ReportTo(r obs.Recorder) {
	if r == nil {
		return
	}
	r.Add("cache.accesses", float64(c.accesses))
	for i, lv := range c.levels {
		r.Add("cache.hits."+lv.name, float64(c.hits[i]))
	}
	r.Add("cache.hits.memory", float64(c.hits[len(c.levels)]))
}
