package mpirt

import (
	"math"
	"strings"
	"testing"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s = %.4g, want %.4g (±%.0f%%)", name, got, want, tol*100)
	}
}

// newMachine builds a machine for a node the test knows is valid.
func newMachine(t *testing.T, node *topology.NodeSpec) *gpusim.Machine {
	t.Helper()
	m, err := gpusim.New(node)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func auroraComm(t *testing.T, nranks int) *Comm {
	t.Helper()
	c, err := NewComm(newMachine(t, topology.NewAurora()), nranks)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCommSetup(t *testing.T) {
	c := auroraComm(t, 12)
	if c.Size() != 12 {
		t.Errorf("size = %d", c.Size())
	}
	if c.m == nil {
		t.Error("machine accessor")
	}
	m := newMachine(t, topology.NewAurora())
	if _, err := NewComm(m, 13); err == nil {
		t.Error("13 ranks on Aurora should fail")
	}
}

// Table III: one local stack-pair, 500 MB Isend/Irecv — unidirectional
// ≈ 197 GB/s.
func TestLocalPairUnidirectional(t *testing.T) {
	c := auroraComm(t, 2)
	size := units.Bytes(500 * units.MB)
	var elapsed units.Seconds
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		start := p.Now()
		switch r.Rank() {
		case 0:
			req, err := r.Isend(1, 7, size)
			if err != nil {
				t.Error(err)
				return
			}
			req.Wait(p)
		case 1:
			req, err := r.Irecv(0, 7)
			if err != nil {
				t.Error(err)
				return
			}
			req.Wait(p)
			elapsed = p.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "local pair uni", float64(size)/float64(elapsed), 197e9, 0.03)
}

// Table III: bidirectional local pair totals ≈ 284 GB/s.
func TestLocalPairBidirectional(t *testing.T) {
	c := auroraComm(t, 2)
	size := units.Bytes(500 * units.MB)
	var finish units.Seconds
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		peer := 1 - r.Rank()
		if err := r.Sendrecv(p, peer, peer, 3, size); err != nil {
			t.Error(err)
		}
		if p.Now() > finish {
			finish = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 2 * float64(size) / float64(finish)
	approx(t, "local pair bidir", total, 284e9, 0.03)
}

// Table III: six local pairs in parallel — 1129 GB/s measured; the fluid
// model (with no node-level contention term) predicts ~6×197 = 1182,
// within 5% of the measurement.
func TestSixLocalPairs(t *testing.T) {
	c := auroraComm(t, 12)
	size := units.Bytes(500 * units.MB)
	var finish units.Seconds
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		// Pairs are the two stacks of each card: (0,1), (2,3), ...
		if r.Rank()%2 == 0 {
			if err := r.Send(p, r.Rank()+1, 1, size); err != nil {
				t.Error(err)
			}
		} else {
			if err := r.Recv(p, r.Rank()-1, 1); err != nil {
				t.Error(err)
			}
			if p.Now() > finish {
				finish = p.Now()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := 6 * float64(size) / float64(finish)
	approx(t, "six local pairs", agg, 1129e9, 0.06)
}

// Table III: remote stack pair over Xe-Link ≈ 15 GB/s uni, 23 GB/s bidir.
func TestRemotePair(t *testing.T) {
	// Ranks 0 (stack 0.0) and 3 (stack 1.1) share a plane: direct hop.
	c := auroraComm(t, 4)
	size := units.Bytes(500 * units.MB)
	var uniElapsed units.Seconds
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		switch r.Rank() {
		case 0:
			if err := r.Send(p, 3, 1, size); err != nil {
				t.Error(err)
			}
		case 3:
			start := p.Now()
			if err := r.Recv(p, 0, 1); err != nil {
				t.Error(err)
			}
			uniElapsed = p.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "remote uni", float64(size)/float64(uniElapsed), 15e9, 0.05)

	c2 := auroraComm(t, 4)
	var finish units.Seconds
	err = c2.Spawn(func(p *sim.Proc, r *Rank) {
		if r.Rank() != 0 && r.Rank() != 3 {
			return
		}
		peer := 3 - r.Rank()
		if err := r.Sendrecv(p, peer, peer, 2, size); err != nil {
			t.Error(err)
		}
		if p.Now() > finish {
			finish = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "remote bidir", 2*float64(size)/float64(finish), 23e9, 0.05)
}

func TestSendToInvalidRank(t *testing.T) {
	c := auroraComm(t, 2)
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		if r.Rank() != 0 {
			return
		}
		if _, err := r.Isend(5, 0, 100); err == nil {
			t.Error("Isend to rank 5 of 2 should fail")
		}
		if _, err := r.Irecv(9, 0); err == nil {
			t.Error("Irecv from rank 9 should fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAndTagMatching(t *testing.T) {
	c := auroraComm(t, 3)
	got := make([]int, 0, 2)
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		switch r.Rank() {
		case 1:
			_ = r.Send(p, 0, 42, 1000)
		case 2:
			_ = r.Send(p, 0, 43, 1000)
		case 0:
			// Tag-selective receive picks the right message regardless
			// of arrival order.
			if err := r.Recv(p, AnySource, 43); err != nil {
				t.Error(err)
			}
			got = append(got, 43)
			if err := r.Recv(p, 1, 42); err != nil {
				t.Error(err)
			}
			got = append(got, 42)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 43 || got[1] != 42 {
		t.Errorf("receive order = %v", got)
	}
}

// TestInboxDrainsAsMessagesMatch sends n messages to rank 0 from two
// interleaved senders and receives them all: each claimed message leaves
// the inbox, and AnySource receives match the unclaimed ones in arrival
// order even after a selective receive has taken the newest.
func TestInboxDrainsAsMessagesMatch(t *testing.T) {
	const n = 8
	c := auroraComm(t, 3)
	var order []int
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		if r.Rank() > 0 {
			// Rank 1 sends the even tags, rank 2 the odd ones; tag k
			// arrives at (k+1) µs.
			var reqs []Request
			for tag := r.Rank() - 1; tag < n; tag += 2 {
				p.Hold(units.Seconds(float64(tag+1)*1e-6) - p.Now())
				req, err := r.Isend(0, tag, 1000)
				if err != nil {
					t.Error(err)
					return
				}
				reqs = append(reqs, req)
			}
			for i := range reqs {
				reqs[i].Wait(p)
			}
			return
		}
		// The newest message first, by source and tag.
		if err := r.Recv(p, 2, n-1); err != nil {
			t.Error(err)
		}
		if got := len(r.inbox); got != n-1 {
			t.Errorf("inbox holds %d messages after the selective receive, want %d", got, n-1)
		}
		for i := 0; i < n-1; i++ {
			req, err := r.Irecv(AnySource, AnyTag)
			if err != nil {
				t.Error(err)
				return
			}
			req.Wait(p)
			order = append(order, req.msg.tag)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range order {
		if tag != i {
			t.Fatalf("AnySource receives matched tags %v, want arrival order 0..%d", order, n-2)
		}
	}
	if len(order) != n-1 {
		t.Fatalf("matched %d messages, want %d", len(order), n-1)
	}
	for _, r := range c.ranks {
		if len(r.inbox) != 0 {
			t.Errorf("rank %d inbox retains %d claimed messages", r.rank, len(r.inbox))
		}
	}
}

func TestAllreducePowerOfTwo(t *testing.T) {
	c := auroraComm(t, 4)
	done := 0
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		if err := r.Allreduce(p, 1*units.MB, 100); err != nil {
			t.Error(err)
		}
		done++
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Errorf("completed ranks = %d", done)
	}
}

func TestAllreduceNonPowerOfTwo(t *testing.T) {
	// 12 ranks on Aurora (pof2 = 8, rem = 4).
	c := auroraComm(t, 12)
	done := 0
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		if err := r.Allreduce(p, 64*units.KB, 500); err != nil {
			t.Error(err)
		}
		done++
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 12 {
		t.Errorf("completed ranks = %d", done)
	}
}

func TestAllreduceSingleRankIsFree(t *testing.T) {
	c := auroraComm(t, 1)
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		if err := r.Allreduce(p, 1*units.GB, 1); err != nil {
			t.Error(err)
		}
		if p.Now() != 0 {
			t.Errorf("single-rank allreduce took %v", p.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Overlap check: Isend/Irecv posted before compute completes during it —
// total time is max(compute, transfer), not the sum.
func TestCommunicationComputationOverlap(t *testing.T) {
	c := auroraComm(t, 2)
	size := units.Bytes(500 * units.MB) // ~2.5 ms over MDFI
	var total units.Seconds
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		switch r.Rank() {
		case 0:
			req, _ := r.Isend(1, 1, size)
			p.Hold(0.1) // long compute during transfer
			req.Wait(p)
			total = p.Now()
		case 1:
			req, _ := r.Irecv(0, 1)
			req.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "overlapped time", float64(total), 0.1, 0.01)
}

func TestRankAccessors(t *testing.T) {
	c := auroraComm(t, 12)
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		if r.Size() != 12 {
			t.Error("rank Size()")
		}
		if r.Rank() == 0 {
			if r.Binding.Core != 1 || r.Stack.ID != (topology.StackID{GPU: 0, Stack: 0}) {
				t.Errorf("rank 0 binding = %+v", r.Binding)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnmatchedRecvDeadlockNamesInbox injects a model deadlock — rank 0
// posts a receive no one ever sends — and checks the engine's
// diagnostic names the rank's inbox signal with a count.
func TestUnmatchedRecvDeadlockNamesInbox(t *testing.T) {
	c := auroraComm(t, 2)
	err := c.Spawn(func(p *sim.Proc, r *Rank) {
		if r.Rank() == 0 {
			if e := r.Recv(p, 1, 99); e != nil {
				panic(e)
			}
		}
	})
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	if want := "blocked: 1 on signal rank0 inbox"; !strings.Contains(err.Error(), want) {
		t.Errorf("deadlock diagnostic %q does not contain %q", err, want)
	}
}

// A warm message is one allocation: the message, which holds its Flow,
// the envelope its receive matches on and, in the flow's completion
// signal, its sender and receiver inline. Requests are values that the
// blocking calls keep on their stacks, and the route's label and the
// flow's start are bound once. Each case counts the messages one round
// sends over all ranks: an intra-node exchange on the cross-plane path,
// an inter-node exchange over the cluster network (StartRemote), and a
// ring allreduce, whose two phases send n-1 messages per rank each.
func TestMessageAllocs(t *testing.T) {
	const rounds = 1000 // amortizes spawning the ranks
	// exchange has ranks a and b swap one message each per round.
	exchange := func(a, b int) func(p *sim.Proc, r *Rank) error {
		return func(p *sim.Proc, r *Rank) error {
			switch r.Rank() {
			case a:
				return r.Sendrecv(p, b, b, 0, units.MB)
			case b:
				return r.Sendrecv(p, a, a, 0, units.MB)
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name string
		comm *Comm
		msgs int // messages per round
		body func(p *sim.Proc, r *Rank) error
	}{
		{"intra-node", auroraComm(t, 4), 2, exchange(0, 2)}, // on different cards
		{"inter-node", auroraClusterComm(t, 2, 2, topology.PlaceSpread), 2, exchange(0, 1)},
		{"ring", auroraComm(t, 4), 2 * 3 * 4, func(p *sim.Proc, r *Rank) error {
			return r.AllreduceRing(p, 0, units.MB)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				err := tc.comm.Spawn(func(p *sim.Proc, r *Rank) {
					for i := 0; i < rounds; i++ {
						if err := tc.body(p, r); err != nil {
							t.Error(err)
							return
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			run() // build the routes, grow the event heap and the inboxes
			perMsg := testing.AllocsPerRun(5, run) / float64(tc.msgs*rounds)
			t.Logf("%.3f allocs per message", perMsg)
			if perMsg > 1.05 {
				t.Errorf("%.2f allocs per message, want at most 1 (the message)", perMsg)
			}
		})
	}
}
