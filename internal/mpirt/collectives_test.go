package mpirt

import (
	"testing"

	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// runCollective spawns the body on nranks Aurora ranks and requires a
// clean (deadlock-free) completion.
func runCollective(t *testing.T, nranks int, body func(p *sim.Proc, r *Rank)) {
	t.Helper()
	c := auroraComm(t, nranks)
	done := 0
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		body(p, r)
		done++
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != nranks {
		t.Fatalf("only %d of %d ranks completed", done, nranks)
	}
}

func TestAllreduceRing(t *testing.T) {
	for _, n := range []int{1, 2, 4, 12} {
		runCollective(t, n, func(p *sim.Proc, r *Rank) {
			if err := r.AllreduceRing(p, 600, 12*units.MB); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		})
	}
}

// Algorithm comparison: for large messages the ring allreduce should
// finish no slower than recursive doubling on the Aurora fabric (it moves
// 2(n−1)/n of the data per rank instead of log2(n) full copies).
func TestRingBeatsRecursiveDoublingForLargeMessages(t *testing.T) {
	size := units.Bytes(200 * units.MB)
	timeOf := func(ring bool) units.Seconds {
		m := newMachine(t, topology.NewAurora())
		c, err := NewComm(m, 12)
		if err != nil {
			t.Fatal(err)
		}
		var finish units.Seconds
		err = c.Spawn(func(p *sim.Proc, r *Rank) {
			var e error
			if ring {
				e = r.AllreduceRing(p, 10, size)
			} else {
				e = r.Allreduce(p, size, 10)
			}
			if e != nil {
				t.Error(e)
			}
			if p.Now() > finish {
				finish = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return finish
	}
	ring := timeOf(true)
	rd := timeOf(false)
	if !(ring < rd) {
		t.Errorf("ring %v should beat recursive doubling %v at 200 MB", ring, rd)
	}
}

// Collectives also complete on every other standard node (different
// fabric shapes must not deadlock the schedules).
func TestCollectivesOnAllSystems(t *testing.T) {
	for _, sys := range topology.AllSystems() {
		node := topology.NewNode(sys)
		m := newMachine(t, node)
		c, err := NewComm(m, node.TotalStacks())
		if err != nil {
			t.Fatal(err)
		}
		err = c.Spawn(func(p *sim.Proc, r *Rank) {
			if err := r.Allreduce(p, 1*units.MB, 1); err != nil {
				t.Error(err)
			}
			if err := r.AllreduceRing(p, 50, 4*units.MB); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
	}
}
