package topology

import (
	"encoding/json"
	"fmt"
	"io"

	"pvcsim/internal/units"
)

// JSON node configurations: define hypothetical systems (the customnode
// workflow) in files instead of code. The schema flattens the device to
// a named base configuration plus overrides, so a config stays small and
// cannot desynchronize the derived architecture constants.

// NodeConfig is the serialized form of a node.
type NodeConfig struct {
	Name string `json:"name"`
	// BaseSystem seeds the configuration: "aurora", "dawn", "h100",
	// "mi250" or "frontier".
	BaseSystem string `json:"base_system"`
	// Overrides (zero values keep the base).
	GPUCount       int     `json:"gpu_count,omitempty"`
	PowerCapW      float64 `json:"power_cap_w,omitempty"`
	XeCoresPerSub  int     `json:"xe_cores_per_sub,omitempty"`
	CPUSockets     int     `json:"cpu_sockets,omitempty"`
	CoresPerSocket int     `json:"cores_per_socket,omitempty"`
	CPUMemBWGBs    float64 `json:"cpu_mem_bw_gbs,omitempty"` // per socket
	HostH2DGBs     float64 `json:"host_h2d_gbs,omitempty"`
	HostD2HGBs     float64 `json:"host_d2h_gbs,omitempty"`
	HostBidirGBs   float64 `json:"host_bidir_gbs,omitempty"`
	// AutoPlanes rebuilds an alternating two-plane Xe-Link table for the
	// new GPU count (PVC bases only).
	AutoPlanes bool `json:"auto_planes,omitempty"`
}

// baseFor maps a base-system name to its constructor.
func baseFor(name string) (*NodeSpec, error) {
	switch name {
	case "aurora":
		return NewAurora(), nil
	case "dawn":
		return NewDawn(), nil
	case "h100":
		return NewJLSEH100(), nil
	case "mi250":
		return NewJLSEMI250(), nil
	case "frontier":
		return NewFrontier(), nil
	default:
		return nil, fmt.Errorf("topology: unknown base system %q", name)
	}
}

// Build materializes the configuration into a validated NodeSpec.
func (c *NodeConfig) Build() (*NodeSpec, error) {
	node, err := baseFor(c.BaseSystem)
	if err != nil {
		return nil, err
	}
	if c.Name != "" {
		node.Name = c.Name
	}
	if c.GPUCount > 0 {
		node.GPUCount = c.GPUCount
	}
	if c.PowerCapW > 0 {
		node.GPU.PowerCapW = c.PowerCapW
	}
	if c.XeCoresPerSub > 0 {
		if node.GPU.Vendor != "Intel" {
			return nil, fmt.Errorf("topology: xe_cores_per_sub only applies to PVC bases")
		}
		node.GPU.Sub.CoreCount = c.XeCoresPerSub
	}
	if c.CPUSockets > 0 {
		node.CPU.Sockets = c.CPUSockets
	}
	if c.CoresPerSocket > 0 {
		node.CPU.CoresPerSocket = c.CoresPerSocket
	}
	if c.CPUMemBWGBs > 0 {
		node.CPU.MemBWPerSocket = units.ByteRate(c.CPUMemBWGBs) * units.GBps
	}
	if c.HostH2DGBs > 0 {
		node.HostH2DPool = units.ByteRate(c.HostH2DGBs) * units.GBps
	}
	if c.HostD2HGBs > 0 {
		node.HostD2HPool = units.ByteRate(c.HostD2HGBs) * units.GBps
	}
	if c.HostBidirGBs > 0 {
		node.HostBidirPool = units.ByteRate(c.HostBidirGBs) * units.GBps
	}
	switch {
	case c.AutoPlanes && node.GPU.SubCount == 2:
		node.Planes = autoPlanes(node.GPUCount)
	case c.GPUCount > 0 && len(node.Planes) > 0:
		// A changed GPU count invalidates the base plane table.
		node.Planes = autoPlanes(node.GPUCount)
	}
	if err := node.Validate(); err != nil {
		return nil, err
	}
	return node, nil
}

// autoPlanes wires the alternating two-plane pattern of Aurora's table
// for n dual-stack cards.
func autoPlanes(n int) [][]StackID {
	planes := make([][]StackID, 2)
	for g := 0; g < n; g++ {
		a := g % 2
		planes[0] = append(planes[0], StackID{GPU: g, Stack: a})
		planes[1] = append(planes[1], StackID{GPU: g, Stack: 1 - a})
	}
	return planes
}

// LoadNodeConfig reads a JSON configuration and builds its node.
func LoadNodeConfig(r io.Reader) (*NodeSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c NodeConfig
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("topology: parsing node config: %w", err)
	}
	return c.Build()
}
