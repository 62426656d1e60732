package history

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func record(id string) Record {
	return Record{
		ID: id, TraceID: "t-test-0001", Start: "2026-08-08T12:00:00Z",
		Workload: "clover-scaling", Systems: []string{"aurora"},
		Status: "done", Cells: 1, CacheHits: 0,
		Sim:  map[string]float64{"clover-scaling:speedup@aurora": 3.5},
		Wall: WallStats{RunMS: 12.5, SimulateMS: 9.75},
	}
}

func TestAppendStampsSchemaAndPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(record("r0001")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(record("r0002")); err != nil {
		t.Fatal(err)
	}
	recs := j.Records()
	if len(recs) != 2 || j.Len() != 2 {
		t.Fatalf("in-memory replica holds %d records, want 2", len(recs))
	}
	if recs[0].Schema != SchemaVersion {
		t.Fatalf("schema not stamped: %d", recs[0].Schema)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(record("r0003")); err == nil {
		t.Fatal("append after close must fail")
	}

	onDisk, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != 2 || onDisk[1].ID != "r0002" {
		t.Fatalf("on-disk journal = %+v", onDisk)
	}
	if onDisk[0].Sim["clover-scaling:speedup@aurora"] != 3.5 {
		t.Fatal("sim FOM did not round-trip")
	}
}

func TestJournalSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	j1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(record("r0001")); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	// A second process appends after the first exits; nothing is lost.
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("reopened journal holds %d records, want 1", j2.Len())
	}
	if err := j2.Append(record("r0002")); err != nil {
		t.Fatal(err)
	}
	recs := j2.Records()
	if len(recs) != 2 || recs[0].ID != "r0001" || recs[1].ID != "r0002" {
		t.Fatalf("journal across restarts = %+v", recs)
	}
}

func TestReadMissingFileIsEmpty(t *testing.T) {
	recs, err := Read(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || recs != nil {
		t.Fatalf("missing file: recs=%v err=%v; want nil, nil", recs, err)
	}
}

func TestReadNamesCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	good := `{"schema_version":1,"id":"r0001","start":"2026-08-08T12:00:00Z","workload":"all","status":"done","cells":1,"wall":{"run_ms":1}}`
	if err := os.WriteFile(path, []byte(good+"\n\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Read(path)
	if err == nil {
		t.Fatal("corrupt journal must not parse")
	}
	// The blank line is skipped, so the bad line is line 3.
	if !strings.Contains(err.Error(), ":3:") {
		t.Fatalf("error does not name the corrupt line: %v", err)
	}
}

// A line holding a record followed by more data is corrupt: Open must
// refuse it, as Validate does, rather than keep the first record and
// silently drop the rest.
func TestOpenRejectsTrailingData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	good := `{"schema_version":1,"id":"r0001","start":"2026-08-08T12:00:00Z","workload":"all","status":"done","cells":1,"wall":{"run_ms":1}}`
	if err := os.WriteFile(path, []byte(good+"\n"+good+` {"id":"r0002"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() error{
		"Open":     func() error { _, err := Open(path); return err },
		"Validate": func() error { _, err := Validate(path); return err },
	} {
		if err := load(); err == nil || !strings.Contains(err.Error(), ":2:") {
			t.Errorf("%s: err = %v, want an error naming line 2", name, err)
		}
	}
}

func TestValidateRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"r0001", "r0002", "r0003"} {
		if err := j.Append(record(id)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	n, err := Validate(path)
	if err != nil {
		t.Fatalf("journal written by Append must validate: %v", err)
	}
	if n != 3 {
		t.Fatalf("validated %d records, want 3", n)
	}

	// A record whose field order differs from this build's marshal
	// output (e.g. hand-edited, or written by a different schema) must
	// be caught — byte-exact round-trip is the contract.
	reordered := `{"id":"r0004","schema_version":1,"start":"2026-08-08T12:00:00Z","workload":"all","status":"done","cells":1,"wall":{"run_ms":1}}`
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(reordered + "\n")
	f.Close()
	if _, err := Validate(path); err == nil {
		t.Fatal("reordered record must fail validation")
	}
}
