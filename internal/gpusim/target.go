package gpusim

import (
	"pvcsim/internal/obs"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
)

// Target is what one runner cell hands its workload: the node to
// simulate plus the observers every machine, cluster or model built for
// the cell must carry. A workload builds only what it drives — an
// analytic cell builds nothing — and whatever it builds through the
// target lands in the cell's trace and wall-clock profile.
type Target struct {
	Node *topology.NodeSpec
	// Obs receives spans and counters (nil when observability is off).
	Obs obs.Recorder
	// Probe is installed on the engine of every machine and cluster
	// built (nil when wall profiling is off).
	Probe sim.WallProbe
	// OnBuild, when set, is called as each machine or cluster build
	// starts; the function it returns is called once the build is done.
	OnBuild func() (done func())
}

// Model returns a fresh performance model of the node, recording into
// the target's recorder.
func (t *Target) Model() *perfmodel.Model {
	m := perfmodel.New(t.Node)
	m.Observe(t.Obs)
	return m
}

// Machine builds a fresh machine for the node, observed by the target.
func (t *Target) Machine() (*Machine, error) {
	if t.OnBuild != nil {
		defer t.OnBuild()()
	}
	m, err := New(t.Node)
	if err != nil {
		return nil, err
	}
	m.Observe(t.Obs)
	m.Eng.SetWallProbe(t.Probe)
	return m, nil
}

// Cluster builds a fresh cluster for the spec, observed by the target.
func (t *Target) Cluster(spec *topology.ClusterSpec) (*Cluster, error) {
	if t.OnBuild != nil {
		defer t.OnBuild()()
	}
	c, err := NewCluster(spec)
	if err != nil {
		return nil, err
	}
	c.Observe(t.Obs)
	c.Eng.SetWallProbe(t.Probe)
	return c, nil
}
