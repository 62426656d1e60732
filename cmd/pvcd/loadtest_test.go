package main

import (
	"bytes"
	"testing"
)

// TestLoadtestRejectsLogFlags: the load generator logs nothing, so it
// refuses -log-format/-log-level before it contacts any daemon; only
// the daemon itself takes them.
func TestLoadtestRejectsLogFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-log-format", "json", "-addr", "127.0.0.1:1", "-requests", "1"},
		{"-log-level", "debug", "-addr", "127.0.0.1:1", "-requests", "1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := runLoadtest(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("pvcd loadtest %q: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}
