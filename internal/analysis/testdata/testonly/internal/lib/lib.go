// Package lib is the testonly fixture's library: each exported
// function is reached from a different kind of caller.
package lib

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

// UsedByCmd is called from the cmd/tool package.
func UsedByCmd() int { return 2 }

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
