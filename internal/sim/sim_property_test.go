package sim

import (
	"testing"
	"testing/quick"

	"pvcsim/internal/units"
)

// Property: events fire in nondecreasing time order regardless of
// scheduling order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		e := NewEngine()
		var fired []units.Seconds
		for _, d := range delaysRaw {
			dd := units.Seconds(d) / 1000
			e.Schedule(dd, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delaysRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: with capacity c, at most c holders overlap; total makespan of
// k unit-duration jobs equals ceil(k/c).
func TestResourceCapacityProperty(t *testing.T) {
	f := func(kRaw, cRaw uint8) bool {
		k := int(kRaw%20) + 1
		c := int(cRaw%5) + 1
		e := NewEngine()
		r := NewResource(e, "res", c)
		inUse := 0
		maxInUse := 0
		for i := 0; i < k; i++ {
			e.Go("w", func(p *Proc) {
				r.Acquire(p)
				inUse++
				if inUse > maxInUse {
					maxInUse = inUse
				}
				p.Hold(1)
				inUse--
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		wantMakespan := units.Seconds((k + c - 1) / c)
		return maxInUse <= c && e.Now() == wantMakespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBarrierProperty(t *testing.T) {
	f := func(offsetsRaw []uint8) bool {
		if len(offsetsRaw) == 0 || len(offsetsRaw) > 16 {
			return true
		}
		e := NewEngine()
		b := NewBarrier(e, len(offsetsRaw))
		latest := units.Seconds(0)
		offsets := make([]units.Seconds, len(offsetsRaw))
		for i, o := range offsetsRaw {
			offsets[i] = units.Seconds(o) / 7
			if offsets[i] > latest {
				latest = offsets[i]
			}
		}
		var releases []units.Seconds
		for _, off := range offsets {
			d := off
			e.Go("r", func(p *Proc) {
				p.Hold(d)
				b.Arrive(p)
				releases = append(releases, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for _, r := range releases {
			if r != latest {
				return false
			}
		}
		return len(releases) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
