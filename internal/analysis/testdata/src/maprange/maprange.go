// Fixture for the maprange analyzer: map iteration order must never
// reach a slice that outlives the loop unsorted, nor any output stream.
package fixture

import (
	"fmt"
	"io"
	"sort"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to "keys" inside a range over a map`
	}
	return keys
}

// The canonical collect-then-sort idiom is exactly what the analyzer
// must NOT flag: the trailing sort repairs the order.
func goodAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func goodSortSlice(m map[string]float64) []float64 {
	var vs []float64
	for _, v := range m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

func badWrite(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `Fprintf inside a range over a map`
	}
}

func badHelper(m map[string]int) {
	for k := range m {
		writeRow(k) // want `call to writeRow inside a range over a map`
	}
}

func writeRow(_ string) {}

// A slice born and consumed inside the body cannot leak iteration
// order across iterations.
func goodLocal(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

// Ranging over a slice is always ordered; nothing to report.
func goodSliceRange(xs []string, w io.Writer) {
	for _, x := range xs {
		fmt.Fprintln(w, x)
	}
}

// Schedule-sensitive sites: the event heap breaks equal-time ties by
// admission sequence, so an Engine.Schedule / Signal.Fire / Go issued
// from a map-range body bakes iteration order into the simulated
// schedule itself. engine stands in for sim.Engine; the analyzer keys
// on method names, not receiver types, because the sites it guards span
// sim, fabric and gpusim wrappers.
type engine struct{}

func (engine) Schedule(after float64, fn func()) {}
func (engine) Go(name string, body func())       {}
func (engine) Fire()                             {}
func (engine) Arm(after float64)                 {}
func (engine) Reserve()                          {}
func (engine) ArmReserved(after float64)         {}
func (engine) AtInstantEnd(fn func())            {}

type flow struct {
	seq  int
	done engine
}

func badScheduleFromMap(e engine, delays map[string]float64) {
	for _, d := range delays {
		e.Schedule(d, func() {}) // want `Schedule inside a range over a map admits simulation events`
	}
}

func badFireFromMap(flows map[*flow]bool) {
	for f := range flows {
		f.done.Fire() // want `Fire inside a range over a map admits simulation events`
	}
}

func badArmFromMap(timers map[string]engine, delays []float64) {
	for _, t := range timers {
		t.Arm(delays[0]) // want `Arm inside a range over a map admits simulation events`
	}
}

func badReserveFromMap(timers map[string]engine, delays []float64) {
	for _, t := range timers {
		t.Reserve()              // want `Reserve inside a range over a map admits simulation events`
		t.ArmReserved(delays[0]) // want `ArmReserved inside a range over a map admits simulation events`
	}
}

func badSettleFromMap(e engine, settles map[string]func()) {
	for _, fn := range settles {
		e.AtInstantEnd(fn) // want `AtInstantEnd inside a range over a map admits simulation events`
	}
}

func badSpawnFromMap(e engine, bodies map[string]func()) {
	for name, body := range bodies {
		e.Go(name, body) // want `Go inside a range over a map admits simulation events`
	}
}

// The repair idiom when the source must be a map: collect into a slice,
// order by admission sequence, then fire from the sorted slice. (The
// fabric network needs no repair: it keeps its active flows in a slice
// in admission order and finishes drained flows straight from it.)
func goodSortedFire(flows map[*flow]bool) {
	var drained []*flow
	for f := range flows {
		if f.seq >= 0 {
			drained = append(drained, f)
		}
	}
	sort.Slice(drained, func(i, j int) bool { return drained[i].seq < drained[j].seq })
	for _, f := range drained {
		f.done.Fire()
	}
}

// Scheduling from a slice range is ordered; nothing to report.
func goodSliceSchedule(e engine, delays []float64) {
	for _, d := range delays {
		e.Schedule(d, func() {})
	}
}
