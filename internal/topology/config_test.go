package topology

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pvcsim/internal/units"
)

func TestNodeConfigBuildDefaults(t *testing.T) {
	c := &NodeConfig{BaseSystem: "aurora"}
	node, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if node.GPUCount != 6 || node.Name != "Aurora" {
		t.Errorf("plain base changed: %s, %d GPUs", node.Name, node.GPUCount)
	}
}

func TestNodeConfigOverrides(t *testing.T) {
	c := &NodeConfig{
		Name:           "Aurora-8",
		BaseSystem:     "aurora",
		GPUCount:       8,
		PowerCapW:      600,
		XeCoresPerSub:  64,
		CPUSockets:     2,
		CoresPerSocket: 64,
		CPUMemBWGBs:    300,
		HostH2DGBs:     400,
		HostD2HGBs:     380,
		HostBidirGBs:   500,
		AutoPlanes:     true,
	}
	node, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if node.Name != "Aurora-8" || node.GPUCount != 8 {
		t.Errorf("overrides lost: %+v", node)
	}
	if node.GPU.PowerCapW != 600 || node.GPU.Sub.CoreCount != 64 {
		t.Error("GPU overrides lost")
	}
	if node.CPU.MemBWPerSocket != 300*units.GBps {
		t.Error("CPU bandwidth override lost")
	}
	if node.HostH2DPool != 400*units.GBps {
		t.Error("pool override lost")
	}
	// Auto planes cover all 16 stacks.
	if len(node.Planes) != 2 || len(node.Planes[0]) != 8 {
		t.Errorf("auto planes wrong: %v", node.Planes)
	}
	if err := node.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Changing the GPU count without AutoPlanes still regenerates a valid
// plane table (the base one would fail validation).
func TestNodeConfigGPUCountRegeneratesPlanes(t *testing.T) {
	c := &NodeConfig{BaseSystem: "dawn", GPUCount: 6}
	node, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(node.Planes[0]) != 6 {
		t.Errorf("planes not regenerated: %v", node.Planes)
	}
}

func TestNodeConfigErrors(t *testing.T) {
	if _, err := (&NodeConfig{BaseSystem: "cray-1"}).Build(); err == nil {
		t.Error("unknown base should fail")
	}
	if _, err := (&NodeConfig{BaseSystem: "h100", XeCoresPerSub: 64}).Build(); err == nil {
		t.Error("Xe-Core override on H100 should fail")
	}
}

func TestLoadSaveNodeConfig(t *testing.T) {
	cfg := &NodeConfig{Name: "TestBox", BaseSystem: "dawn", GPUCount: 2}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	node, err := LoadNodeConfig(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if node.Name != "TestBox" || node.GPUCount != 2 {
		t.Errorf("roundtrip lost data: %s %d", node.Name, node.GPUCount)
	}
	// Unknown fields are rejected (typo safety).
	if _, err := LoadNodeConfig(strings.NewReader(`{"base_system":"dawn","gpus":4}`)); err == nil {
		t.Error("unknown field should fail")
	}
	if _, err := LoadNodeConfig(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage should fail")
	}
}

// A JSON-configured node runs through the whole stack: build, validate,
// and bind ranks.
func TestConfiguredNodeUsable(t *testing.T) {
	node, err := LoadNodeConfig(strings.NewReader(
		`{"name":"MiniDawn","base_system":"dawn","gpu_count":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if node.TotalStacks() != 4 {
		t.Errorf("stacks = %d", node.TotalStacks())
	}
	if _, err := node.BindRanks(4); err != nil {
		t.Fatal(err)
	}
}
