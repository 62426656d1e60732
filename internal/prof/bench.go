package prof

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchSchemaVersion stamps records `pvcprof bench` writes. It is
// versioned independently of the profile export's SchemaVersion (the
// two formats evolve separately; early records conflated them).
// History: v1 = records without go_version; v2 adds go_version and the
// independent schema number; v3 drops the `wall` object (the
// simulator's speed is perfbench's measurement, not the bench
// record's). Older records that carry `wall` load and ignore it.
// Readers never reject an unknown version — Diff reports the schema
// asymmetry as a note instead of silently comparing fields one side
// cannot have.
const BenchSchemaVersion = 3

// Record is one canonical bench entry: the simulated figures of merit,
// deterministic and diffable exactly.
type Record struct {
	Schema    int                `json:"schema_version"`
	Date      string             `json:"date"` // YYYY-MM-DD, stamped by the caller
	Label     string             `json:"label,omitempty"`
	GoVersion string             `json:"go_version,omitempty"` // runtime.Version() of the writing build (schema ≥ 2)
	Sim       map[string]float64 `json:"sim"`                  // "metric@system" → simulated value
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
// Records accumulate — the file is the simulated FOM trajectory, so
// nothing is ever rewritten or dropped.
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
