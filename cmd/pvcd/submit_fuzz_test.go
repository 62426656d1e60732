package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmitSpec throws arbitrary bodies at the submit path's untrusted
// half: the size cap, the strict JSON decode and cell resolution, the
// same parseSubmit the POST /v1/runs handler runs before it starts
// anything. Every body either resolves to cells each of which its
// workload supports, or is refused with a 4xx; a panic or a 5xx is a
// bug.
func FuzzSubmitSpec(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"p2p","systems":["aurora"]}`,
		`{"workload":"all","systems":["dawn","AURORA"],"jobs":2,"wait":true}`,
		`{"artifacts":true}`,
		`{"artifacts":true,"workload":"triad"}`,
		`{"workload":"p2p","systems":["h100"]}`,
		`{"workload":"nope"}`,
		`{"systems":["bogus"]}`,
		`{"jobs":-1}`,
		`{"typo":1}`,
		`{"workload":"p2p"} trailing`,
		`[]`,
		``,
		`{"systems":null,"workload":""}`,
	} {
		f.Add([]byte(seed))
	}
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), 1)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
		_, cells, ok := s.parseSubmit(rec, req)
		if !ok {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("refused body %q with status %d, want a 4xx", body, rec.Code)
			}
			return
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("accepted body %q but wrote a response: %s", body, rec.Body)
		}
		if len(cells) == 0 {
			t.Fatalf("accepted body %q selects no cells", body)
		}
		for _, c := range cells {
			if !c.Workload.Supports(c.System) {
				t.Fatalf("body %q resolved %s on unsupported %s", body, c.Workload.Name(), c.System)
			}
		}
	})
}
