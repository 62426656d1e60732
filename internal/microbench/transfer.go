package microbench

import (
	"fmt"

	"pvcsim/internal/mpirt"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// Direction selects the PCIe transfer pattern.
type Direction int

// PCIe benchmark directions.
const (
	DirH2D Direction = iota
	DirD2H
	DirBidir
)

// Triad runs the device memory bandwidth benchmark on n subdevices
// concurrently via the discrete-event simulator and returns the aggregate
// bandwidth in TB/s. Each stack's kernel streams three 805 MB arrays
// ("two loads, one store").
func (s *Suite) Triad(n int) (float64, error) {
	m, err := s.Target.Machine()
	if err != nil {
		return 0, err
	}
	stacks := m.Stacks()[:n]
	totalBytes := units.Bytes(0)
	// Per-proc finish slots; the makespan is their max.
	finishes := make([]units.Seconds, len(stacks))
	prof := perfmodel.Profile{
		Name:     "triad",
		MemBytes: 3 * TriadArrayBytes, // two loads + one store of 805 MB
		Kind:     perfmodel.KindStream,
	}
	for i, st := range stacks {
		stc, slot := st, i
		totalBytes += prof.MemBytes
		m.Go("triad", func(p *sim.Proc) {
			stc.LaunchKernel(p, prof)
			finishes[slot] = p.Now()
		})
	}
	if err := m.Run(); err != nil {
		return 0, err
	}
	return float64(units.BandwidthOf(totalBytes, maxSeconds(finishes))) / 1e12, nil
}

// PCIe runs the host-device transfer benchmark across n subdevices and
// returns aggregate bandwidth in GB/s: 500 MB per direction per stack
// ("a total of 1 GB when transferred simultaneously in both directions").
func (s *Suite) PCIe(dir Direction, n int) (float64, error) {
	m, err := s.Target.Machine()
	if err != nil {
		return 0, err
	}
	stacks := m.Stacks()[:n]
	finishes := make([]units.Seconds, 2*len(stacks))
	totalBytes := units.Bytes(0)
	slot := 0
	for _, st := range stacks {
		stc := st
		if dir == DirH2D || dir == DirBidir {
			totalBytes += TransferSize
			i := slot
			slot++
			m.Go("h2d", func(p *sim.Proc) { stc.MemcpyH2D(p, TransferSize); finishes[i] = p.Now() })
		}
		if dir == DirD2H || dir == DirBidir {
			totalBytes += TransferSize
			i := slot
			slot++
			m.Go("d2h", func(p *sim.Proc) { stc.MemcpyD2H(p, TransferSize); finishes[i] = p.Now() })
		}
	}
	if err := m.Run(); err != nil {
		return 0, err
	}
	return float64(units.BandwidthOf(totalBytes, maxSeconds(finishes))) / 1e9, nil
}

// P2PResult mirrors the Table III layout in GB/s.
type P2PResult struct {
	LocalUniOne    float64
	LocalUniAll    float64
	LocalBidirOne  float64
	LocalBidirAll  float64
	RemoteUniOne   float64
	RemoteUniAll   float64
	RemoteBidirOne float64
	RemoteBidirAll float64
	Pairs          int
}

// P2P runs the device-to-device microbenchmark (§IV-A4): 500 MB
// non-blocking MPI messages between stack pairs, local (same card) and
// remote (Xe-Link, plane-aligned), one pair and all pairs, uni- and
// bidirectional. Systems without an internal link (H100) report zeros for
// the local rows.
func (s *Suite) P2P() (*P2PResult, error) {
	res := &P2PResult{Pairs: s.Node.GPUCount}
	hasLocal := s.Node.GPU.SubCount > 1
	if hasLocal {
		pairs := s.localPairs()
		var err error
		if res.LocalUniOne, err = s.runPairs(pairs[:1], false); err != nil {
			return nil, err
		}
		if res.LocalUniAll, err = s.runPairs(pairs, false); err != nil {
			return nil, err
		}
		if res.LocalBidirOne, err = s.runPairs(pairs[:1], true); err != nil {
			return nil, err
		}
		if res.LocalBidirAll, err = s.runPairs(pairs, true); err != nil {
			return nil, err
		}
	}
	if s.Node.GPUCount > 1 {
		pairs := s.remotePairs()
		var err error
		if res.RemoteUniOne, err = s.runPairs(pairs[:1], false); err != nil {
			return nil, err
		}
		if res.RemoteUniAll, err = s.runPairs(pairs, false); err != nil {
			return nil, err
		}
		if res.RemoteBidirOne, err = s.runPairs(pairs[:1], true); err != nil {
			return nil, err
		}
		if res.RemoteBidirAll, err = s.runPairs(pairs, true); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pair is a source/destination stack pair.
type pair struct{ src, dst topology.StackID }

// localPairs returns one in-card pair per GPU.
func (s *Suite) localPairs() []pair {
	var out []pair
	for g := 0; g < s.Node.GPUCount; g++ {
		out = append(out, pair{topology.StackID{GPU: g, Stack: 0}, topology.StackID{GPU: g, Stack: 1}})
	}
	return out
}

// remotePairs returns disjoint cross-card pairs. On PVC systems the pairs
// are plane-aligned (one Xe-Link hop); cards are paired (0,1), (2,3), ...
// with both stacks of each card pairing to the plane-matched stack of the
// partner card, giving GPUCount disjoint remote pairs (6 on Aurora).
func (s *Suite) remotePairs() []pair {
	var out []pair
	for g := 0; g+1 < s.Node.GPUCount; g += 2 {
		for st := 0; st < s.Node.GPU.SubCount; st++ {
			src := topology.StackID{GPU: g, Stack: st}
			// Prefer the plane-aligned partner stack for a direct hop,
			// starting from the same stack index so every destination
			// stack is used exactly once on planeless all-to-all fabrics.
			for off := 0; off < s.Node.GPU.SubCount; off++ {
				dst := topology.StackID{GPU: g + 1, Stack: (st + off) % s.Node.GPU.SubCount}
				if s.Node.Route(src, dst) == topology.RemoteDirect {
					out = append(out, pair{src, dst})
					break
				}
			}
		}
	}
	return out
}

// runPairs transfers 500 MB across each pair (both directions when bidir)
// using non-blocking MPI over the simulated fabric and returns the
// aggregate bandwidth in GB/s.
func (s *Suite) runPairs(pairs []pair, bidir bool) (float64, error) {
	m, err := s.Target.Machine()
	if err != nil {
		return 0, err
	}
	comm, err := mpirt.NewComm(m, s.Node.TotalStacks())
	if err != nil {
		return 0, err
	}
	// Map stack IDs to ranks (rank order is GPU-major).
	rankOf := map[topology.StackID]int{}
	for i, id := range s.Node.Subdevices() {
		rankOf[id] = i
	}
	role := map[int]pair{}  // rank → its pair (as sender)
	peerOf := map[int]int{} // receiver rank → sender rank
	for _, pr := range pairs {
		sr, dr := rankOf[pr.src], rankOf[pr.dst]
		role[sr] = pr
		peerOf[dr] = sr
	}
	totalBytes := units.Bytes(len(pairs)) * TransferSize
	if bidir {
		totalBytes *= 2
	}
	finishes := make([]units.Seconds, comm.Size())
	err = comm.Spawn(func(p *sim.Proc, r *mpirt.Rank) {
		if pr, isSender := role[r.Rank()]; isSender {
			dst := rankOf[pr.dst]
			if bidir {
				if err := r.Sendrecv(p, dst, dst, 1, TransferSize); err != nil {
					panic(fmt.Sprintf("sendrecv: %v", err))
				}
			} else {
				if err := r.Send(p, dst, 1, TransferSize); err != nil {
					panic(fmt.Sprintf("send: %v", err))
				}
			}
			finishes[r.Rank()] = p.Now()
			return
		}
		if src, isRecv := peerOf[r.Rank()]; isRecv {
			if bidir {
				if err := r.Sendrecv(p, src, src, 1, TransferSize); err != nil {
					panic(fmt.Sprintf("sendrecv: %v", err))
				}
			} else {
				if err := r.Recv(p, src, 1); err != nil {
					panic(fmt.Sprintf("recv: %v", err))
				}
			}
			finishes[r.Rank()] = p.Now()
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(units.BandwidthOf(totalBytes, maxSeconds(finishes))) / 1e9, nil
}

// maxSeconds returns the largest element (the slowest finisher).
func maxSeconds(ts []units.Seconds) units.Seconds {
	var m units.Seconds
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
