package main

import (
	"math"
	"testing"
	"time"
)

func TestDueSampleCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	s := dueSample("read", false, due, due.Add(30*time.Millisecond), due.Add(45*time.Millisecond))
	if s.Late != 30*time.Millisecond || s.Latency != 45*time.Millisecond {
		t.Errorf("got late %v latency %v, want 30ms and 45ms", s.Late, s.Latency)
	}
}

// A sender that cannot keep up sends later and later; each op's latency
// includes the wait the earlier ops imposed on it.
func TestOpenLoopLatenessGrowsWhenBehind(t *testing.T) {
	const opTime = 20 * time.Millisecond
	samples, _ := openLoop(100, 120*time.Millisecond, 1, time.Minute, func(int) (string, bool) {
		time.Sleep(opTime)
		return "slow", false
	})
	if len(samples) != 12 {
		t.Fatalf("got %d samples, want 12 (100/s for 120ms)", len(samples))
	}
	for i, s := range samples {
		// op i is due at 10i ms but cannot start before 20i ms.
		if min := time.Duration(i) * 10 * time.Millisecond; s.Late < min {
			t.Errorf("op %d sent %v late, want at least %v", i, s.Late, min)
		}
		if s.Latency < s.Late+opTime {
			t.Errorf("op %d latency %v, want at least lateness %v + op %v", i, s.Latency, s.Late, opTime)
		}
	}
	if st := summarize(samples); !st.Backlog || st.Late.Value < 50 {
		t.Errorf("summary %+v: want a growing backlog and a late tail", st)
	}
}

func TestOpenLoopOnScheduleIsNotLate(t *testing.T) {
	samples, _ := openLoop(200, 100*time.Millisecond, 2, time.Minute, func(int) (string, bool) { return "fast", false })
	st := summarize(samples)
	if st.Attempted != 20 || st.Backlog || st.Late.Value > 5 {
		t.Errorf("summary %+v: want 20 ops sent on time", st)
	}
}

func TestFailedAndRefusedOpsCount(t *testing.T) {
	// One worker, 1000 ops/s, a first op that stalls 60ms and a 20ms
	// give-up: the ops due during the stall are refused, not sent.
	sent := 0
	samples, _ := openLoop(1000, 30*time.Millisecond, 1, 20*time.Millisecond, func(i int) (string, bool) {
		sent++
		if i == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		return "op", i == 0 // the stalled op also fails its check
	})
	st := summarize(samples)
	refused := 0
	for _, s := range samples {
		if s.Kind == "refused" {
			refused++
			if !s.Failed {
				t.Errorf("refused op not counted as failed: %+v", s)
			}
		}
	}
	if refused == 0 || st.Attempted != 30 || st.Failed != refused+1 || sent != 30-refused {
		t.Errorf("attempted %d failed %d refused %d sent %d: want 30 attempted, refused ops plus the failed one counted", st.Attempted, st.Failed, refused, sent)
	}
	if got := st.failRatio(); got != float64(st.Failed)/30 {
		t.Errorf("failRatio = %v", got)
	}
	var out outcome
	out.count(st)
	out.count(loadStats{Attempted: 5, Failed: 1})
	if out.attempted != 35 || out.failed != st.Failed+1 {
		t.Errorf("outcome counts %d/%d", out.failed, out.attempted)
	}
}

func TestOfPartsTakesEachMetricsMedianPart(t *testing.T) {
	var w window
	// Five one-second parts of 40 ops, a third of each part's ops slow,
	// each part slower than the last, so the third is the median one.
	for part := 0; part < 5; part++ {
		fast := time.Duration(part+1) * 10 * time.Millisecond
		for i := 0; i < 40; i++ {
			l := fast
			if i%3 == 0 {
				l += 5 * time.Millisecond
			}
			at := time.Duration(part)*time.Second + time.Duration(i)*time.Millisecond
			w.samples = append(w.samples, sample{Latency: l, Done: at, Events: 5})
		}
	}
	w.elapsed = 5 * time.Second
	parts := partsByTime(w)
	f := ofParts(parts, calRefMS)
	// 40 ops in the smallest part leave 10 beyond p75 but not beyond p90.
	if f.Parts != 5 || f.P50 != 30 || f.TailP != 75 || f.Tail != 35 || f.N != 40 || f.Beyond != 10 {
		t.Errorf("ofParts = %+v, want the third part's p50 30ms and p75 35ms", f)
	}
	// The third part spends 26 × 30 + 14 × 35 ms in its 40 ops.
	if want := 40 / 1.27; math.Abs(f.OpsPerS-want) > 1e-9 || math.Abs(f.EventsPerS-5*want) > 1e-9 {
		t.Errorf("ofParts rates %v ops/s %v events/s, want the third part's %v and %v", f.OpsPerS, f.EventsPerS, want, 5*want)
	}
}

// Figures measured while the kernel ran twice as fast as on the reference
// host are scaled to what that host would show: times double, rates halve.
func TestOfPartsScalesByHostSpeed(t *testing.T) {
	var samples []sample
	for i := 0; i < 60; i++ {
		samples = append(samples, sample{Latency: 10 * time.Millisecond, Events: 3})
	}
	f := ofParts([][]sample{samples}, calRefMS/2)
	if f.RawP50 != 10 || f.P50 != 20 || f.Tail != 20 || f.RawOpsPerS != 100 || f.OpsPerS != 50 || f.EventsPerS != 150 {
		t.Errorf("ofParts = %+v, want 10 ms and 100 ops/s raw, 20 ms and 50 ops/s scaled", f)
	}
}

func TestSaturateKeepsWorkersBusy(t *testing.T) {
	const opTime = 10 * time.Millisecond
	samples, elapsed := saturate(100*time.Millisecond, 2, 1000, func(int) (string, bool) {
		time.Sleep(opTime)
		return "op", false
	})
	// Two workers back to back for 100 ms send about 20 ops.
	if len(samples) < 12 || len(samples) > 24 || elapsed < 100*time.Millisecond {
		t.Fatalf("sent %d ops in %v, want about 20 in 100ms", len(samples), elapsed)
	}
	for i, s := range samples {
		if s.Kind != "op" || s.Latency < opTime {
			t.Errorf("sample %d = %+v, want a whole op", i, s)
		}
	}
	if got, _ := saturate(time.Second, 2, 5, func(int) (string, bool) { return "op", false }); len(got) != 5 {
		t.Errorf("a 5-op plan sent %d ops", len(got))
	}
}

func TestClosedLoopCalibratesBetweenOps(t *testing.T) {
	calls := 0
	w := closedLoop(250*time.Millisecond, func() (string, int, error) {
		calls++
		time.Sleep(5 * time.Millisecond)
		return "op", 3, nil
	}, func() bool { return calls%2 == 0 })
	if len(w.samples) != calls || len(w.cal) < 2 {
		t.Fatalf("%d samples of %d ops, %d kernel reps: want every op and a rep each %v", len(w.samples), calls, len(w.cal), calEvery)
	}
	failed := 0
	for _, s := range w.samples {
		if s.Failed {
			failed++
		}
	}
	if failed != (calls+1)/2 {
		t.Errorf("%d of %d ops failed their check, want every odd one", failed, calls)
	}
}

func TestSliceRatesTakesTheMedianSlice(t *testing.T) {
	slice := func(ops, events int) phase {
		ph := phase{elapsed: time.Second, events: events}
		for i := 0; i < ops; i++ {
			ph.samples = append(ph.samples, sample{Kind: "op"})
		}
		return ph
	}
	mid := slice(21, 80)
	mid.samples[0].Failed = true
	f := sliceRates([]phase{slice(10, 40), mid, slice(30, 120)}, calRefMS*2)
	if f.RawOpsPerS != 20 || f.RawEventsPerS != 80 || f.OpsPerS != 40 {
		t.Errorf("sliceRates = %+v; want the middle slice's 20 completed ops/s and 80 events/s, doubled on a host half as fast", f)
	}
	if got := joinPhases([]phase{slice(10, 40), mid}); len(got.samples) != 31 || got.events != 120 || got.elapsed != 2*time.Second {
		t.Errorf("joinPhases = %d samples, %d events over %v", len(got.samples), got.events, got.elapsed)
	}
}
