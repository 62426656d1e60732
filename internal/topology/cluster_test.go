package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pvcsim/internal/units"
)

// TestBindRanksEdgeCases sweeps every modeled system: binding the full
// stack count works, one past it fails with the supported range in the
// message, and non-positive counts fail.
func TestBindRanksEdgeCases(t *testing.T) {
	for _, sys := range AllSystemsExtended() {
		n := NewNode(sys)
		full, err := n.BindRanks(n.TotalStacks())
		if err != nil {
			t.Fatalf("%s: full binding: %v", sys, err)
		}
		if len(full) != n.TotalStacks() {
			t.Errorf("%s: bound %d ranks, want %d", sys, len(full), n.TotalStacks())
		}
		over := n.TotalStacks() + 1
		if _, err := n.BindRanks(over); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("1..%d", n.TotalStacks())) {
			t.Errorf("%s: BindRanks(%d) = %v, want range error", sys, over, err)
		}
		for _, bad := range []int{0, -1} {
			if _, err := n.BindRanks(bad); err == nil {
				t.Errorf("%s: BindRanks(%d) accepted", sys, bad)
			}
		}
	}
}

// TestNodeConfigRoundTripProperty is a seeded property test: random
// configurations survive JSON encoding → LoadNodeConfig with the built
// node identical to building the config directly.
func TestNodeConfigRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bases := []string{"aurora", "dawn", "h100", "mi250", "frontier"}
	for i := 0; i < 200; i++ {
		c := &NodeConfig{BaseSystem: bases[rng.Intn(len(bases))]}
		if rng.Intn(2) == 0 {
			c.Name = fmt.Sprintf("custom-%d", i)
		}
		if rng.Intn(2) == 0 {
			c.GPUCount = 1 + rng.Intn(8)
		}
		if rng.Intn(2) == 0 {
			c.PowerCapW = 100 + float64(rng.Intn(600))
		}
		if rng.Intn(2) == 0 {
			c.CPUSockets = 1 + rng.Intn(2)
		}
		if rng.Intn(2) == 0 {
			c.CoresPerSocket = 16 + rng.Intn(100)
		}
		if rng.Intn(2) == 0 {
			c.CPUMemBWGBs = 50 + float64(rng.Intn(500))
		}
		if rng.Intn(2) == 0 {
			c.HostH2DGBs = 10 + float64(rng.Intn(100))
		}
		if c.BaseSystem != "h100" && c.BaseSystem != "mi250" && rng.Intn(2) == 0 {
			c.XeCoresPerSub = 32 + rng.Intn(64)
			c.AutoPlanes = rng.Intn(2) == 0
		}
		direct, directErr := c.Build()
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("config %d: encode: %v", i, err)
		}
		loaded, loadedErr := LoadNodeConfig(bytes.NewReader(data))
		if (directErr == nil) != (loadedErr == nil) {
			t.Fatalf("config %d: direct err %v vs loaded err %v\n%s", i, directErr, loadedErr, data)
		}
		if directErr != nil {
			continue
		}
		if !reflect.DeepEqual(direct, loaded) {
			t.Fatalf("config %d: round-trip changed the node\nconfig: %s\ndirect: %+v\nloaded: %+v",
				i, data, direct, loaded)
		}
	}
}

// TestNetworkSpecValidate covers the parameter checks and the latency
// composition rule.
func TestNetworkSpecValidate(t *testing.T) {
	good := NewSlingshot(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 link traversals at 300ns + 3 switch traversals at 350ns.
	want := 4*300*units.Nanosecond + 3*350*units.Nanosecond
	if got := good.RemoteLatency(); got != want {
		t.Errorf("RemoteLatency = %v, want %v", got, want)
	}
	cases := []struct {
		mutate func(*NetworkSpec)
		want   string
	}{
		{func(n *NetworkSpec) { n.InjectionBW = 0 }, "injection"},
		{func(n *NetworkSpec) { n.GlobalBW = -1 }, "global"},
		{func(n *NetworkSpec) { n.Hops = -1 }, "hop"},
		{func(n *NetworkSpec) { n.LinkLatency = -units.Nanosecond }, "latency"},
	}
	for _, c := range cases {
		n := NewSlingshot(2)
		c.mutate(&n)
		if err := n.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate = %v, want error containing %q", err, c.want)
		}
	}
}

// TestClusterRoute checks a cluster's addressing: intra-node pairs keep
// their single-node path kind, and the stack count spans every node.
func TestClusterRoute(t *testing.T) {
	c := NewCluster(Aurora, 2)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Node.Route(StackID{GPU: 0, Stack: 0}, StackID{GPU: 0, Stack: 1}); got != LocalStack {
		t.Errorf("intra-card route = %v, want %v", got, LocalStack)
	}
	if got, want := c.TotalStacks(), 2*NewAurora().TotalStacks(); got != want {
		t.Errorf("TotalStacks = %d, want %d", got, want)
	}
}

// TestClusterBindRanksPolicies checks packed fills node 0 first while
// spread deals round-robin, both reusing the single-node core binding.
func TestClusterBindRanksPolicies(t *testing.T) {
	c := NewCluster(Aurora, 2)
	perNode := c.Node.TotalStacks()

	packed, err := c.BindRanks(perNode+2, PlacePacked)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < perNode; r++ {
		if packed[r].Node != 0 {
			t.Errorf("packed rank %d on node %d, want 0", r, packed[r].Node)
		}
	}
	if packed[perNode].Node != 1 || packed[perNode+1].Node != 1 {
		t.Errorf("packed overflow ranks on nodes %d,%d, want 1,1",
			packed[perNode].Node, packed[perNode+1].Node)
	}

	spread, err := c.BindRanks(4, PlaceSpread)
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range []int{0, 1, 0, 1} {
		if spread[r].Node != want {
			t.Errorf("spread rank %d on node %d, want %d", r, spread[r].Node, want)
		}
	}
	// Spread past one node's capacity wraps onto nodes with room.
	full, err := c.BindRanks(2*perNode, PlaceSpread)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, b := range full {
		counts[b.Node]++
	}
	if counts[0] != perNode || counts[1] != perNode {
		t.Errorf("spread full cluster fills %v, want %d per node", counts, perNode)
	}
	// A one-node cluster reproduces the paper's single-node binding.
	one := NewCluster(Aurora, 1)
	cb, err := one.BindRanks(perNode, PlacePacked)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := one.Node.BindRanks(perNode)
	if err != nil {
		t.Fatal(err)
	}
	for r := range cb {
		if cb[r].Local != nb[r] {
			t.Errorf("rank %d: cluster binding %+v != node binding %+v", r, cb[r].Local, nb[r])
		}
	}
	// Range errors.
	if _, err := c.BindRanks(0, PlacePacked); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := c.BindRanks(2*perNode+1, PlaceSpread); err == nil {
		t.Error("overfull cluster accepted")
	}
}

// TestParsePlacement covers the policy spellings.
func TestParsePlacement(t *testing.T) {
	for name, want := range map[string]Placement{
		"packed": PlacePacked, "block": PlacePacked,
		"spread": PlaceSpread, "cyclic": PlaceSpread, "SPREAD": PlaceSpread,
	} {
		got, err := ParsePlacement(name)
		if err != nil || got != want {
			t.Errorf("ParsePlacement(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePlacement("diagonal"); err == nil {
		t.Error("unknown placement accepted")
	}
	if PlacePacked.String() != "packed" || PlaceSpread.String() != "spread" {
		t.Error("placement names changed")
	}
}

// TestAllSystemsExtended checks the extended list is the paper set plus
// Frontier, in order.
func TestAllSystemsExtended(t *testing.T) {
	ext := AllSystemsExtended()
	base := AllSystems()
	if len(ext) != len(base)+1 {
		t.Fatalf("extended list has %d systems, want %d", len(ext), len(base)+1)
	}
	for i, s := range base {
		if ext[i] != s {
			t.Errorf("extended[%d] = %v, want %v", i, ext[i], s)
		}
	}
	if ext[len(ext)-1] != Frontier {
		t.Errorf("extended list should end with Frontier, got %v", ext[len(ext)-1])
	}
}
