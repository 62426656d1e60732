package hw_test

import (
	"testing"

	"pvcsim/internal/hw"
	"pvcsim/internal/mem"
	"pvcsim/internal/units"
)

// The cache level a working set lands in is read from a subdevice's
// Caches through the memory hierarchy built over them.
func TestCacheLevelFor(t *testing.T) {
	h := mem.NewHierarchy(&hw.NewAuroraPVC().Sub)
	if lv := h.LevelFor(100 * units.KiB); lv.Name != "L1" {
		t.Errorf("100KiB → %s, want L1", lv.Name)
	}
	if lv := h.LevelFor(10 * units.MiB); lv.Name != "L2" {
		t.Errorf("10MiB → %s, want L2", lv.Name)
	}
	if lv := h.LevelFor(1 * units.GB); lv.Name != "HBM" {
		t.Errorf("1GB → %s, want HBM", lv.Name)
	}
	if lv := h.LevelFor(10 * units.TB); lv.Name != "HBM" {
		t.Errorf("oversized → %s, want HBM", lv.Name)
	}
}
