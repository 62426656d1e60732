package main

import (
	"container/heap"
	"fmt"
	"time"
)

// The host this benchmark shares is not steady: other tenants slow it by
// up to 3× for minutes at a time, in CPU time as well as wall time, so no
// statistic taken inside one run removes the drift between runs. Every
// end-to-end timing and rate is therefore scaled to a reference host
// speed: measured × calRefMS ÷ the median time of a fixed calibration
// kernel, run while the program is idle (between the ops of a closed loop,
// between the slices of the daemon's windows). The kernel uses no pvcsim
// code, so a change to the simulator moves the scaled figures exactly as
// it moves the raw ones, while a change of host speed moves both the
// kernel and the ops. The kernel is more sensitive to other tenants than
// the simulator is: on a host slowed 2.5×, engine ops slowed 2× and the
// daemon's two-CPU capacity 1.7×, so scaling leaves 20–40% of such a slowdown
// (the other way) where raw figures would keep all of it. The raw figures
// are printed beside the scaled ones.

// calRefMS is the kernel's time on the reference host (a 2-CPU x86-64
// container, Go 1.24, with no other load), so scaled figures read as
// milliseconds there.
const calRefMS = 1.8

// calEvery is how often a closed loop runs one kernel rep between ops.
const calEvery = 100 * time.Millisecond

// calEvent is one entry of the kernel's event queue.
type calEvent struct {
	at uint64
	id int
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calSink keeps the kernel's result live.
var calSink int

// calKernel is a fixed amount of simulator-like work: a heap-ordered event
// queue of small allocated events whose handlers format keys into a map,
// the mix of allocation, pointer chasing, hashing and fmt the event engine
// and machine build spend their time on.
func calKernel() {
	var q calQueue
	m := make(map[string]int, 512)
	x := uint64(88172645463325252)
	for i := 0; i < 10000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap.Push(&q, &calEvent{at: x % 1_000_000, id: i})
		if q.Len() > 64 {
			e := heap.Pop(&q).(*calEvent)
			m[fmt.Sprintf("node%d.lane%d", e.id%97, e.at%13)] += e.id
		}
	}
	calSink += len(m)
}

// calRep times one kernel rep in ms.
func calRep() float64 {
	t0 := time.Now()
	calKernel()
	return ms(time.Since(t0))
}

// calibrate runs kernel reps back to back for d and returns their median
// time in ms.
func calibrate(d time.Duration) float64 {
	var reps []float64
	for t0 := time.Now(); time.Since(t0) < d || len(reps) < 5; {
		reps = append(reps, calRep())
	}
	return median(reps)
}

// speedScale is the factor that turns a time measured while the kernel
// took calMS into a time on the reference host.
func speedScale(calMS float64) float64 {
	if calMS <= 0 {
		return 1
	}
	return calRefMS / calMS
}

// calNote describes a scaled figure for the printed report.
func calNote(raw, calMS float64, unit string) string {
	return fmt.Sprintf("raw %.4g %s, kernel %.3f ms (scale %.3f)", raw, unit, calMS, speedScale(calMS))
}
