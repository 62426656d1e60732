package prof

import (
	"encoding/json"
	"fmt"
	"os"
)

// WallStats is the wall-clock side of a bench record — the only place
// in the repo where wall time is machine-readable, kept in its own
// struct so it can never be confused with the simulated figures next to
// it.
type WallStats struct {
	RunMS float64 `json:"run_ms"` // wall-clock duration of the bench run
	Jobs  int     `json:"jobs"`   // runner parallelism the run used
	Cells int     `json:"cells"`  // cells computed

	// Self-profile totals, recorded when the bench run carried a
	// wallprof collector. Zero-valued (and omitted from the JSON) on
	// records written before the self-profiling layer existed — readers
	// must treat absence as "not measured", never as zero (pvcprof diff
	// reports the asymmetry instead of comparing). Engine fields stay
	// zero when the bench set's workloads are analytic (no event-engine
	// simulation); that zero is a measurement, not an absence. Older
	// records may also carry lane_jobs, mean_lane_util and the
	// event-lane engine's stall, barrier, round and mailbox totals; they
	// load and are ignored.
	BuildMS    float64 `json:"build_ms,omitempty"`     // Σ machine-construction wall time
	SimulateMS float64 `json:"simulate_ms,omitempty"`  // Σ workload-execution wall time
	LaneBusyMS float64 `json:"lane_busy_ms,omitempty"` // Σ engine busy wall time
}

// HasSelfProfile reports whether the record carries wallprof totals
// (records predating the self-profiling layer do not).
func (w WallStats) HasSelfProfile() bool {
	return w.BuildMS != 0 || w.SimulateMS != 0 || w.LaneBusyMS != 0
}

// BenchSchemaVersion stamps records `pvcprof bench` writes. It is
// versioned independently of the profile export's SchemaVersion (the
// two formats evolve separately; early records conflated them).
// History: v1 = records without go_version; v2 adds go_version and the
// independent schema number. Readers never reject an unknown version —
// Diff reports the schema asymmetry as a note instead of silently
// comparing fields one side cannot have.
const BenchSchemaVersion = 2

// Record is one canonical bench entry: the simulated figures of merit
// (deterministic, diffable exactly) plus the wall-clock cost of
// producing them (the simulator's own performance trajectory).
type Record struct {
	Schema    int                `json:"schema_version"`
	Date      string             `json:"date"` // YYYY-MM-DD, stamped by the caller
	Label     string             `json:"label,omitempty"`
	GoVersion string             `json:"go_version,omitempty"` // runtime.Version() of the writing build (schema ≥ 2)
	Sim       map[string]float64 `json:"sim"`                  // "metric@system" → simulated value
	Wall      WallStats          `json:"wall"`
}

// ReadRecords loads a bench file (a JSON array of Records). A missing
// file is an empty history, not an error.
func ReadRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("prof: parsing %s: %w", path, err)
	}
	return recs, nil
}

// AppendRecord appends rec to the bench file, creating it when absent.
// Records accumulate — the file is the simulator's performance history,
// so nothing is ever rewritten or dropped.
func AppendRecord(path string, rec Record) error {
	recs, err := ReadRecords(path)
	if err != nil {
		return err
	}
	recs = append(recs, rec)
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
