package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// expected holds the simulated outputs recorded at seed. Any difference is
// a wrong output, never noise: the simulator is deterministic.
type expected struct {
	// Artifacts maps each file one paper-artifacts op writes to its
	// SHA-256: the artifact set plus the metrics, trace and profile
	// exports.
	Artifacts map[string]string `json:"artifacts"`
	// PaperErrGeomean is the geometric mean of |relative error| over
	// Study.Experiments() against the paper's published numbers.
	PaperErrGeomean float64 `json:"paper_err_geomean"`
	// Cells holds one entry per engine cell, keyed "workload@system".
	Cells map[string]cellExpect `json:"cells"`
}

// cellExpect is one engine cell's recorded output.
type cellExpect struct {
	Result  string  `json:"result"`  // SHA-256 of the cell's result values as JSON
	Metrics string  `json:"metrics"` // SHA-256 of the cell's obs metrics export
	Events  int     `json:"events"`  // events in the cell's obs export
	Flows   float64 `json:"fabric_flows"`
	Bytes   float64 `json:"fabric_bytes"`
	Hops    float64 `json:"fabric_hops"`
}

func newExpected() *expected {
	return &expected{Artifacts: map[string]string{}, Cells: map[string]cellExpect{}}
}

func loadExpected(path string) (*expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	e := newExpected()
	if err := json.Unmarshal(data, e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

func (e *expected) save(path string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// sortedKeys returns a map's keys in order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
