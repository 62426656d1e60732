package microbench

import (
	"fmt"

	"pvcsim/internal/mpirt"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// MsgSweepPoint is one point of a message-size sweep: the classic
// latency-bandwidth curve behind every P2P benchmark.
type MsgSweepPoint struct {
	Size      units.Bytes
	Time      units.Seconds
	Bandwidth units.ByteRate
}

// P2PSweep measures one stack pair of the given path kind across message
// sizes, returning the latency-bandwidth curve. It extends Table III
// (which reports only 500 MB messages) down to the latency-dominated
// regime.
func (s *Suite) P2PSweep(kind topology.PathKind, sizes []units.Bytes) ([]MsgSweepPoint, error) {
	src, dst, err := s.pairFor(kind)
	if err != nil {
		return nil, err
	}
	var out []MsgSweepPoint
	for _, size := range sizes {
		m, err := s.Target.Machine()
		if err != nil {
			return nil, err
		}
		comm, err := mpirt.NewComm(m, s.Node.TotalStacks())
		if err != nil {
			return nil, err
		}
		rankOf := map[topology.StackID]int{}
		for i, id := range s.Node.Subdevices() {
			rankOf[id] = i
		}
		sr, dr := rankOf[src], rankOf[dst]
		var elapsed units.Seconds
		sz := size
		err = comm.Spawn(func(p *sim.Proc, r *mpirt.Rank) {
			switch r.Rank() {
			case sr:
				if err := r.Send(p, dr, 1, sz); err != nil {
					panic(err)
				}
			case dr:
				start := p.Now()
				if err := r.Recv(p, sr, 1); err != nil {
					panic(err)
				}
				elapsed = p.Now() - start
			}
		})
		if err != nil {
			return nil, err
		}
		out = append(out, MsgSweepPoint{Size: size, Time: elapsed, Bandwidth: units.BandwidthOf(size, elapsed)})
	}
	return out, nil
}

// pairFor picks a representative stack pair of the requested kind.
func (s *Suite) pairFor(kind topology.PathKind) (topology.StackID, topology.StackID, error) {
	switch kind {
	case topology.LocalStack:
		if s.Node.GPU.SubCount < 2 {
			return topology.StackID{}, topology.StackID{}, fmt.Errorf("microbench: %s has no local stack pair", s.Node.Name)
		}
		return topology.StackID{GPU: 0, Stack: 0}, topology.StackID{GPU: 0, Stack: 1}, nil
	case topology.RemoteDirect:
		if s.Node.GPUCount < 2 {
			return topology.StackID{}, topology.StackID{}, fmt.Errorf("microbench: %s has a single GPU", s.Node.Name)
		}
		src := topology.StackID{GPU: 0, Stack: 0}
		for st := 0; st < s.Node.GPU.SubCount; st++ {
			dst := topology.StackID{GPU: 1, Stack: st}
			if s.Node.Route(src, dst) == topology.RemoteDirect {
				return src, dst, nil
			}
		}
		return topology.StackID{}, topology.StackID{}, fmt.Errorf("microbench: no direct remote pair on %s", s.Node.Name)
	case topology.RemoteExtraHop:
		src := topology.StackID{GPU: 0, Stack: 0}
		for st := 0; st < s.Node.GPU.SubCount; st++ {
			dst := topology.StackID{GPU: 1, Stack: st}
			if s.Node.Route(src, dst) == topology.RemoteExtraHop {
				return src, dst, nil
			}
		}
		return topology.StackID{}, topology.StackID{}, fmt.Errorf("microbench: no extra-hop pair on %s", s.Node.Name)
	default:
		return topology.StackID{}, topology.StackID{}, fmt.Errorf("microbench: sweep needs a transfer path, got %v", kind)
	}
}

// DefaultSweepSizes covers 1 KB to 512 MB in powers of four.
func DefaultSweepSizes() []units.Bytes {
	var out []units.Bytes
	for sz := units.Bytes(1 * units.KB); sz <= 512*units.MB; sz *= 4 {
		out = append(out, sz)
	}
	return out
}

// HalfPeakSize returns n_1/2: the smallest swept message size achieving
// at least half the curve's asymptotic bandwidth — the standard summary
// of a latency-bandwidth curve.
func HalfPeakSize(curve []MsgSweepPoint) (units.Bytes, error) {
	if len(curve) == 0 {
		return 0, fmt.Errorf("microbench: empty sweep")
	}
	peak := curve[len(curve)-1].Bandwidth
	for _, pt := range curve {
		if pt.Bandwidth >= peak/2 {
			return pt.Size, nil
		}
	}
	return curve[len(curve)-1].Size, nil
}
