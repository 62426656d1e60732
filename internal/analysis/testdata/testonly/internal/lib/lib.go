// Package lib is the testonly fixture's library: each function is
// reached from a different kind of caller.
package lib

import "context"

// OnlyTests is called from lib_test.go alone.
func OnlyTests() int { return 1 }

// Countdown calls itself and is otherwise reached only from a test: a
// function's references to itself are no caller.
func Countdown(n int) int {
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Meter satisfies no interface: its Value method shares only a name
// with context.Context's, which does not make it reachable.
type Meter struct{ n int }

// Value is called from lib_test.go alone.
func (m *Meter) Value() int { return m.n }

// Scoped is called from the cmd/tool package; it puts context.Context
// in the loaded universe.
func Scoped(ctx context.Context) context.Context { return ctx }

// UsedByCmd is called from the cmd/tool package.
func UsedByCmd() int { return twice(1) }

// twice is unexported and reached from UsedByCmd, so it is live.
func twice(n int) int { return 2 * n }

// UsedByBench is called from the nested bench module only.
func UsedByBench() int { return 3 }

// Describer is satisfied by T.
type Describer interface{ Describe() string }

// T is reached through Describer.
type T struct{}

// Describe is only ever called through the Describer interface.
func (T) Describe() string { return "t" }

// Pick returns a Describer; the tool calls it.
func Pick() Describer { return T{} }

// init is run, not referenced, and is no finding.
func init() {}

// helper is unexported and called from lib_test.go alone: the check
// covers unexported functions too.
func helper() int { return 6 }
