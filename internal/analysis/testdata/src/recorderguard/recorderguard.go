// Fixture for the recorderguard analyzer: every method call on an
// obs.Recorder value needs a dominating nil check, because a nil
// Recorder is the hot-path default.
package fixture

import "pvcsim/internal/obs"

type machine struct {
	obs obs.Recorder
}

func (m *machine) bad() {
	m.obs.Add("x", 1) // want `m\.obs\.Add is called without a dominating nil check`
}

func (m *machine) goodEnclosing() {
	if m.obs != nil {
		m.obs.Add("x", 1)
	}
}

func (m *machine) goodNested(deep bool) {
	if m.obs != nil {
		if deep {
			m.obs.Span(obs.Span{})
		}
	}
}

func (m *machine) goodEarlyReturn() {
	if m.obs == nil {
		return
	}
	for i := 0; i < 3; i++ {
		m.obs.Add("x", 1)
	}
}

func badParam(r obs.Recorder) {
	r.Add("y", 2) // want `r\.Add is called without a dominating nil check`
}

func goodParam(r obs.Recorder) {
	if r == nil {
		return
	}
	r.Add("y", 2)
}

func goodConjunct(r obs.Recorder, on bool) {
	if r != nil && on {
		r.Span(obs.Span{})
	}
}

func goodDisjunctReturn(r obs.Recorder, done bool) {
	if r == nil || done {
		return
	}
	r.Add("z", 1)
}

// The nil-tolerant helper is the sanctioned unguarded path.
func goodHelper(r obs.Recorder) {
	obs.Count(r, "z", 1)
}

// A guard outside a closure does not dominate calls inside it: the
// closure may run in a context the analyzer cannot see.
func badClosure(r obs.Recorder) func() {
	if r != nil {
		return func() {
			r.Add("w", 1) // want `r\.Add is called without a dominating nil check`
		}
	}
	return func() {}
}

// Guarding the wrong variable proves nothing about this one.
func badWrongGuard(r, other obs.Recorder) {
	if other != nil {
		r.Add("w", 1) // want `r\.Add is called without a dominating nil check`
	}
}

// Calls in the else branch run exactly when the guard failed.
func badElse(r obs.Recorder) {
	if r != nil {
		r.Add("ok", 1)
	} else {
		r.Add("boom", 1) // want `r\.Add is called without a dominating nil check`
	}
}
