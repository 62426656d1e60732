package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed op. For an open loop Latency runs from the op's due
// time, so it includes any wait a stall imposed; Late is how far after its
// due time the op was sent. A closed loop sends each op as soon as the last
// returns, so Late is 0 and Latency is the op's own duration.
type sample struct {
	Kind    string
	Latency time.Duration
	Late    time.Duration
	Failed  bool
	Done    time.Duration // closed loop: when the op finished, from the window's start
	Events  int           // simulated events the op computed
}

// loadStats summarises the samples of one measured window.
type loadStats struct {
	Attempted int
	Failed    int
	P50       float64 // ms
	Tail      tail    // ms
	Late      tail    // ms, open loop only
	Backlog   bool    // open loop: lateness grew across the window
}

// failRatio is failed ÷ attempted.
func (s loadStats) failRatio() float64 { return ratio(float64(s.Failed), float64(s.Attempted)) }

// summarize computes latency percentiles over every sample. A failed or
// refused op counts as missing any latency limit, so it enters the tail as
// +Inf only through Failed; its measured latency still counts.
func summarize(samples []sample) loadStats {
	st := loadStats{Attempted: len(samples)}
	lat := make([]float64, 0, len(samples))
	late := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.Failed {
			st.Failed++
		}
		lat = append(lat, ms(s.Latency))
		late = append(late, ms(s.Late))
	}
	st.P50 = median(lat)
	st.Tail = tailOf(lat)
	st.Late = tailOf(late)
	st.Backlog = backlogGrew(late)
	return st
}

// backlogThresholdMS is how much later, in ms, the last third of a window's
// ops may be sent than its first third before the backlog counts as
// growing.
const backlogThresholdMS = 10

// backlogGrew reports whether ops were sent later and later across the
// window: the median lateness of the last third exceeds the first third's
// by more than backlogThresholdMS.
func backlogGrew(lateMS []float64) bool {
	n := len(lateMS) / 3
	if n == 0 {
		return false
	}
	return median(lateMS[len(lateMS)-n:])-median(lateMS[:n]) > backlogThresholdMS
}

// window is one closed-loop measurement: the samples of its ops and the
// times in ms of the calibration kernel reps taken between them.
type window struct {
	samples []sample
	cal     []float64
	elapsed time.Duration
}

// closedLoop runs op back to back until d has elapsed, with one kernel rep
// between ops every calEvery. Only op is timed; check, when not nil, then
// verifies what op produced, and a failed check fails the op. The window is
// checked between ops only, so every sample is a whole op.
func closedLoop(d time.Duration, op func() (kind string, events int, err error), check func() bool) window {
	var w window
	t0 := time.Now()
	for nextCal := time.Duration(0); time.Since(t0) < d; {
		if now := time.Since(t0); now >= nextCal {
			w.cal = append(w.cal, calRep())
			nextCal = now + calEvery
		}
		s := time.Now()
		kind, events, err := op()
		lat := time.Since(s)
		failed := err != nil || check != nil && !check()
		w.samples = append(w.samples, sample{Kind: kind, Latency: lat, Failed: failed, Done: time.Since(t0), Events: events})
	}
	w.elapsed = time.Since(t0)
	return w
}

// subWindows is how many parts a measured window is cut into.
const subWindows = 6

// partFigures holds the median over the parts of a window of each metric,
// as measured (Raw*) and scaled to the reference host speed by the median
// kernel rep of the whole window. The median part keeps a part that a
// stall, or a host briefly faster or slower than the rest of the window,
// moved from moving the result, while a slower program is slower in every
// part. The best part, as in the paper's best-of-N runs, would be the
// luckiest moment of a noisy host, which differs from run to run.
type partFigures struct {
	P50, Tail           float64 // ms
	OpsPerS, EventsPerS float64
	TailP               float64 // percentile of the tail, the same in every part
	Parts, N, Beyond    int     // parts; ops in the smallest and beyond its tail rank

	RawP50, RawTail, RawOpsPerS, RawEventsPerS float64
	CalMS                                      float64
}

// scale fills the scaled figures from the raw ones.
func (f *partFigures) scale(calMS float64) {
	s := speedScale(calMS)
	f.CalMS = calMS
	f.P50, f.Tail = f.RawP50*s, f.RawTail*s
	f.OpsPerS, f.EventsPerS = f.RawOpsPerS/s, f.RawEventsPerS/s
}

// partsByTime cuts a window into subWindows equal parts by op finish time,
// leaving out empty parts.
func partsByTime(w window) [][]sample {
	part := w.elapsed / subWindows
	buckets := make([][]sample, subWindows)
	for _, s := range w.samples {
		i := min(int(s.Done/part), subWindows-1)
		buckets[i] = append(buckets[i], s)
	}
	var parts [][]sample
	for _, b := range buckets {
		if len(b) > 0 {
			parts = append(parts, b)
		}
	}
	return parts
}

// ofParts returns each metric's median over the parts of a closed loop,
// scaled by calMS. Rates are ops and events per second of time spent in
// ops. The tail is taken at one percentile in every part: the highest with
// at least minBeyond samples beyond it in the smallest part.
func ofParts(parts [][]sample, calMS float64) partFigures {
	f := partFigures{Parts: len(parts)}
	if len(parts) == 0 {
		return f
	}
	smallest := parts[0]
	for _, b := range parts {
		if len(b) < len(smallest) {
			smallest = b
		}
	}
	tl := tailOf(latencies(smallest, ""))
	f.TailP, f.N, f.Beyond = tl.P, tl.N, tl.Beyond
	var p50s, tails, ops, events []float64
	for _, b := range parts {
		lat := sortedCopy(latencies(b, ""))
		tail, _ := nearestRank(lat, f.TailP)
		var busy time.Duration
		n := 0
		for _, s := range b {
			busy += s.Latency
			n += s.Events
		}
		p50s = append(p50s, median(lat))
		tails = append(tails, tail)
		ops = append(ops, ratio(float64(len(b)), busy.Seconds()))
		events = append(events, ratio(float64(n), busy.Seconds()))
	}
	f.RawP50, f.RawTail = median(p50s), median(tails)
	f.RawOpsPerS, f.RawEventsPerS = median(ops), median(events)
	f.scale(calMS)
	return f
}

// alternate runs each named setting in turn, rounds times over, so slow
// drift of the host hits every setting alike.
func alternate(rounds int, names []string, run func(name string)) {
	for r := 0; r < rounds; r++ {
		for _, n := range names {
			run(n)
		}
	}
}

// saturate keeps `workers` senders busy, each sending its next op as soon
// as its last returns, until d has elapsed or the n planned ops are spent.
// Ops are numbered in the order they start and sample i is op i.
func saturate(d time.Duration, workers, n int, op func(i int) (kind string, failed bool)) ([]sample, time.Duration) {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := time.Now()
				kind, failed := op(i)
				out[i] = sample{Kind: kind, Latency: time.Since(s), Failed: failed}
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), n)], time.Since(t0)
}

// spinBefore is how long before an op's due time a sender stops sleeping
// and spins instead: a sleeping goroutine wakes up to a millisecond late
// (half a millisecond at the median on a 2-CPU host), a delay that would
// otherwise count as the op's latency and outweigh a fast op's service
// time.
const spinBefore = 2 * time.Millisecond

// openLoop sends rate ops per second for d, op i being due at i/rate after
// the start, from `workers` concurrent senders. A sender that falls behind
// sends the next op late rather than skipping it; an op whose due time has
// passed by more than giveUp when a sender reaches it is not sent and counts
// as refused, which bounds the run when the system cannot keep up.
func openLoop(rate float64, d time.Duration, workers int, giveUp time.Duration,
	op func(i int) (kind string, failed bool)) ([]sample, time.Duration) {
	n := int(rate * d.Seconds())
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due) - spinBefore; wait > 0 {
					time.Sleep(wait)
				}
				for time.Now().Before(due) {
				}
				sent := time.Now()
				if sent.Sub(due) > giveUp {
					out[i] = sample{Kind: "refused", Latency: sent.Sub(due), Late: sent.Sub(due), Failed: true}
					continue
				}
				kind, failed := op(i)
				done := time.Now()
				out[i] = dueSample(kind, failed, due, sent, done)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// dueSample builds an open-loop sample: latency from the due time, and
// lateness as the gap between due and sent.
func dueSample(kind string, failed bool, due, sent, done time.Time) sample {
	return sample{Kind: kind, Latency: done.Sub(due), Late: sent.Sub(due), Failed: failed}
}
