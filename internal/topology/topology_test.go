package topology

import (
	"testing"

	"pvcsim/internal/units"
)

func TestAllNodesValidate(t *testing.T) {
	for _, s := range AllSystems() {
		n := NewNode(s)
		if n == nil {
			t.Fatalf("NewNode(%v) returned nil", s)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
		if n.System != s {
			t.Errorf("%v: System field mismatch", s)
		}
	}
	if NewNode(System(99)) != nil {
		t.Error("unknown system should return nil")
	}
}

func TestSystemNames(t *testing.T) {
	want := map[System]string{
		Aurora: "Aurora", Dawn: "Dawn", JLSEH100: "JLSE-H100", JLSEMI250: "JLSE-MI250",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), name)
		}
	}
}

// §III node inventory: Aurora 6 PVC (12 stacks), Dawn 4 PVC (8 stacks),
// JLSE-H100 4 GPUs, JLSE-MI250 4 cards (8 GCDs).
func TestStackCounts(t *testing.T) {
	cases := []struct {
		s     System
		gpus  int
		ranks int
	}{
		{Aurora, 6, 12},
		{Dawn, 4, 8},
		{JLSEH100, 4, 4},
		{JLSEMI250, 4, 8},
	}
	for _, c := range cases {
		n := NewNode(c.s)
		if n.GPUCount != c.gpus {
			t.Errorf("%v GPUs = %d, want %d", c.s, n.GPUCount, c.gpus)
		}
		if n.TotalStacks() != c.ranks {
			t.Errorf("%v stacks = %d, want %d", c.s, n.TotalStacks(), c.ranks)
		}
		if len(n.Subdevices()) != c.ranks {
			t.Errorf("%v Subdevices length mismatch", c.s)
		}
	}
}

// The paper's §IV-A4 plane example: 0.0 and 1.1 share a plane, so a
// transfer 0.0 → 1.0 needs an extra hop while 0.0 → 1.1 is direct.
func TestAuroraPlaneRouting(t *testing.T) {
	n := NewAurora()
	if got := n.Route(StackID{0, 0}, StackID{1, 1}); got != RemoteDirect {
		t.Errorf("0.0→1.1 = %v, want remote-direct", got)
	}
	if got := n.Route(StackID{0, 0}, StackID{1, 0}); got != RemoteExtraHop {
		t.Errorf("0.0→1.0 = %v, want remote-extra-hop", got)
	}
	if got := n.Route(StackID{0, 0}, StackID{0, 1}); got != LocalStack {
		t.Errorf("0.0→0.1 = %v, want local-stack", got)
	}
	if got := n.Route(StackID{2, 1}, StackID{2, 1}); got != SameStack {
		t.Errorf("same = %v", got)
	}
	// Plane membership from the paper, spot checks.
	if n.PlaneOf(StackID{5, 1}) != 0 || n.PlaneOf(StackID{5, 0}) != 1 {
		t.Error("GPU 5 plane assignment wrong")
	}
}

func TestH100RoutingIsAllToAll(t *testing.T) {
	n := NewJLSEH100()
	if got := n.Route(StackID{0, 0}, StackID{3, 0}); got != RemoteDirect {
		t.Errorf("H100 cross-card = %v, want remote-direct", got)
	}
	if n.PlaneOf(StackID{0, 0}) != -1 {
		t.Error("H100 has no planes")
	}
}

func TestPathKindStrings(t *testing.T) {
	for _, k := range []PathKind{SameStack, LocalStack, RemoteDirect, RemoteExtraHop} {
		if k.String() == "" {
			t.Error("empty path kind name")
		}
	}
}

func TestSocketOf(t *testing.T) {
	a := NewAurora()
	// 6 GPUs over 2 sockets: 0-2 → socket 0, 3-5 → socket 1.
	for gpu, want := range []int{0, 0, 0, 1, 1, 1} {
		if got := a.SocketOf(gpu); got != want {
			t.Errorf("Aurora SocketOf(%d) = %d, want %d", gpu, got, want)
		}
	}
	d := NewDawn()
	for gpu, want := range []int{0, 0, 1, 1} {
		if got := d.SocketOf(gpu); got != want {
			t.Errorf("Dawn SocketOf(%d) = %d, want %d", gpu, got, want)
		}
	}
}

// §IV-A: "rank 0 is bound to CPU core 1 and PVC 0 Stack 0" — core 0 is
// reserved for OS kernel threads.
func TestBindRanks(t *testing.T) {
	n := NewAurora()
	b, err := n.BindRanks(12)
	if err != nil {
		t.Fatal(err)
	}
	if b[0].Stack != (StackID{0, 0}) || b[0].Core != 1 || b[0].Socket != 0 {
		t.Errorf("rank 0 binding = %+v", b[0])
	}
	if b[1].Stack != (StackID{0, 1}) || b[1].Core != 2 {
		t.Errorf("rank 1 binding = %+v", b[1])
	}
	// Rank 6 is PVC 3 stack 0, on socket 1, first core after the
	// reserved core 52 → core index 53.
	if b[6].Stack != (StackID{3, 0}) || b[6].Socket != 1 || b[6].Core != 53 {
		t.Errorf("rank 6 binding = %+v", b[6])
	}
	// No two ranks share a core.
	cores := map[int]bool{}
	for _, rb := range b {
		if cores[rb.Core] {
			t.Errorf("core %d double-booked", rb.Core)
		}
		cores[rb.Core] = true
	}
	if _, err := n.BindRanks(13); err == nil {
		t.Error("13 ranks on Aurora should fail")
	}
	if _, err := n.BindRanks(0); err == nil {
		t.Error("0 ranks should fail")
	}
}

func TestValidateCatchesBadPlanes(t *testing.T) {
	n := NewAurora()
	n.Planes = [][]StackID{{{0, 0}}, {{0, 0}}}
	if err := n.Validate(); err == nil {
		t.Error("duplicate plane membership should fail")
	}
	n2 := NewAurora()
	n2.Planes = [][]StackID{{{9, 0}}}
	if err := n2.Validate(); err == nil {
		t.Error("out-of-range plane entry should fail")
	}
	n3 := NewAurora()
	n3.Planes = [][]StackID{{{0, 0}}}
	if err := n3.Validate(); err == nil {
		t.Error("partial plane coverage should fail")
	}
}

func TestCPUSpecs(t *testing.T) {
	a := NewAurora()
	if a.CPU.TotalCores() != 104 {
		t.Errorf("Aurora cores = %d, want 104", a.CPU.TotalCores())
	}
	if a.CPU.HBM != 128*units.GB {
		t.Errorf("Aurora CPU HBM = %v", a.CPU.HBM)
	}
	m := NewJLSEMI250()
	if m.CPU.TotalCores() != 128 {
		t.Errorf("MI250 node cores = %d, want 128", m.CPU.TotalCores())
	}
	if NewDawn().CPU.DDR != 1024*units.GB {
		t.Error("Dawn DDR should be 1024 GB")
	}
}

func TestStackIDString(t *testing.T) {
	if (StackID{4, 1}).String() != "4.1" {
		t.Error("StackID notation")
	}
}

func TestParseSystem(t *testing.T) {
	cases := map[string]System{
		"aurora":     Aurora,
		"Aurora":     Aurora,
		"dawn":       Dawn,
		"h100":       JLSEH100,
		"JLSE-H100":  JLSEH100,
		"mi250":      JLSEMI250,
		"jlse-mi250": JLSEMI250,
		"frontier":   Frontier,
	}
	for name, want := range cases {
		got, err := ParseSystem(name)
		if err != nil || got != want {
			t.Errorf("ParseSystem(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "pvc", "aurora2"} {
		if _, err := ParseSystem(bad); err == nil {
			t.Errorf("ParseSystem(%q) accepted", bad)
		}
	}
}
