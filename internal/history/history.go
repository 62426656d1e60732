// Package history is the persistent run-history journal: one
// append-only JSONL file holding one canonical record per completed
// pvcd run (workload, systems, sim FOMs, wall stats, trace ID, schema
// version). The journal survives daemon restarts — pvcd re-opens it on
// boot and serves the accumulated records from GET /v1/history;
// `pvcprof history` reads the same file offline for trend tables and
// regression flags.
//
// Like telemetry/wallprof/reqtrace, history is a wall-clock side
// channel: records are derived from finished results and never feed
// back into the simulation. pvcd's determinism tests prove exports are
// byte-identical with the journal enabled vs disabled.
package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// SchemaVersion stamps every record this build writes. Readers accept
// other versions (records are kept, flagged, never silently dropped)
// so a journal can span daemon upgrades.
const SchemaVersion = 1

// WallStats is the wall-clock summary of one run. Phase fields come
// from the run's wallprof report and are omitted when the phase never
// ran.
type WallStats struct {
	RunMS       float64 `json:"run_ms"`
	BuildMS     float64 `json:"build_ms,omitempty"`
	SimulateMS  float64 `json:"simulate_ms,omitempty"`
	ExportMS    float64 `json:"export_ms,omitempty"`
	CacheWaitMS float64 `json:"cache_wait_ms,omitempty"`
}

// Record is one completed run. Sim keys use the bench-record format
// "workload:metric[/scope]@system" so history FOMs diff directly
// against BENCH_*.json records.
type Record struct {
	Schema    int                `json:"schema_version"`
	ID        string             `json:"id"`
	TraceID   string             `json:"trace_id,omitempty"`
	Start     string             `json:"start"` // RFC3339Nano, UTC
	Workload  string             `json:"workload"`
	Systems   []string           `json:"systems,omitempty"`
	Status    string             `json:"status"` // done | failed
	Cells     int                `json:"cells"`
	CacheHits int64              `json:"cache_hits,omitempty"`
	Panics    int64              `json:"panics,omitempty"`
	Sim       map[string]float64 `json:"sim,omitempty"`
	Wall      WallStats          `json:"wall"`
}

// Journal is an append-only JSONL file plus its in-memory replica.
// Open loads what previous processes wrote; Append is durable before
// it returns. Safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	recs []Record
}

// Open reads an existing journal (strictly — a corrupt line is an
// error naming its line number, not a silent skip) and opens it for
// appending, creating it if absent.
func Open(path string) (*Journal, error) {
	recs, err := Read(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	return &Journal{path: path, f: f, recs: recs}, nil
}

// Append stamps the record's schema version if unset, writes it as one
// JSON line, and syncs before returning — a record acknowledged here
// survives a crash.
func (j *Journal) Append(r Record) error {
	if r.Schema == 0 {
		r.Schema = SchemaVersion
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("history: marshal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("history: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("history: append %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("history: sync %s: %w", j.path, err)
	}
	j.recs = append(j.recs, r)
	return nil
}

// Records returns a copy of all records in append order (oldest
// first), including those loaded from disk at Open.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.recs...)
}

// Len reports the record count.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file; further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Read loads a journal read-only. A missing file is an empty journal
// (same convention as prof.ReadRecords); a malformed line is an error
// naming the line.
func Read(path string) ([]Record, error) {
	var recs []Record
	err := scan(path, func(_ []byte, r Record) error {
		recs = append(recs, r)
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// Validate strict-parses a journal and proves every line round-trips:
// unmarshal then re-marshal must reproduce the stored bytes exactly.
// That holds for any line Append wrote (Append stores json.Marshal
// output verbatim) and catches hand-edits, field reordering, and
// records carrying fields this build doesn't know. Returns the record
// count.
func Validate(path string) (int, error) {
	n := 0
	err := scan(path, func(line []byte, r Record) error {
		out, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("re-marshal: %w", err)
		}
		if !bytes.Equal(out, line) {
			return fmt.Errorf("record does not round-trip (schema_version %d vs this build's %d?)", r.Schema, SchemaVersion)
		}
		n++
		return nil
	})
	return n, err
}

// scan parses each non-blank line of the journal at path as one record,
// with json.Unmarshal, so trailing data after a record is an error, and
// hands fn the trimmed line and its record. An error from the parse or
// from fn names the line.
func scan(path string, fn func(line []byte, r Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r Record
		err := json.Unmarshal(line, &r)
		if err == nil {
			err = fn(line, r)
		}
		if err != nil {
			return fmt.Errorf("history: %s:%d: %w", path, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("history: %s: %w", path, err)
	}
	return nil
}
