package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"pvcsim/internal/history"
	"pvcsim/internal/prof"
)

// tabWriter returns the table writer every history table shares.
func tabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// runHistory inspects a pvcd run-history journal: a trend table of the
// recorded runs (newest last), wall-clock aggregates per workload, and
// — when a baseline bench file is available — regression flags for the
// latest run's simulated FOMs against the baseline's last record at
// the usual exact-by-default tolerance. Exits 1 on a FOM regression,
// 2 on usage or an unreadable journal.
func runHistory(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pvcprof history", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "BENCH_baseline.json",
		"bench file whose last record gates the latest run's FOMs ('' disables the check)")
	relTol := fs.Float64("rel-tol", 0,
		"relative tolerance for FOM drift against the baseline (0 = exact)")
	last := fs.Int("last", 0, "show only the newest N records in the trend table (0 = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "pvcprof history: want exactly one history.jsonl argument")
		return 2
	}
	recs, err := history.Read(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "pvcprof history: %v\n", err)
		return 2
	}
	if len(recs) == 0 {
		fmt.Fprintf(stderr, "pvcprof history: %s holds no records\n", fs.Arg(0))
		return 2
	}

	shown := recs
	if *last > 0 && *last < len(shown) {
		shown = shown[len(shown)-*last:]
	}
	tw := tabWriter(stdout)
	fmt.Fprintln(tw, "RUN\tSTART\tWORKLOAD\tSTATUS\tCELLS\tHITS\tWALL_MS\tSIM_MS\tTRACE")
	for _, r := range shown {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\t%.1f\t%.1f\t%s\n",
			r.ID, r.Start, r.Workload, r.Status, r.Cells, r.CacheHits,
			r.Wall.RunMS, r.Wall.SimulateMS, r.TraceID)
	}
	tw.Flush()

	// Per-workload wall trend: first vs latest run answers "is the
	// service getting slower on this workload" at a glance.
	type trend struct {
		workload      string
		runs          int
		first, latest float64
	}
	byWorkload := map[string]*trend{}
	var order []string
	for _, r := range recs {
		if r.Status != "done" {
			continue
		}
		tr := byWorkload[r.Workload]
		if tr == nil {
			tr = &trend{workload: r.Workload, first: r.Wall.RunMS}
			byWorkload[r.Workload] = tr
			order = append(order, r.Workload)
		}
		tr.runs++
		tr.latest = r.Wall.RunMS
	}
	if len(order) > 0 {
		sort.Strings(order)
		fmt.Fprintln(stdout)
		tw = tabWriter(stdout)
		fmt.Fprintln(tw, "WORKLOAD\tRUNS\tFIRST_WALL_MS\tLATEST_WALL_MS\tCHANGE")
		for _, w := range order {
			tr := byWorkload[w]
			change := "-"
			if tr.first > 0 {
				change = fmt.Sprintf("%+.1f%%", (tr.latest-tr.first)/tr.first*100)
			}
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%s\n", tr.workload, tr.runs, tr.first, tr.latest, change)
		}
		tw.Flush()
	}

	// Records from another schema stay in the tables but are flagged,
	// never silently reinterpreted — same contract as pvcprof diff
	// across bench schemas.
	for _, r := range shown {
		if r.Schema != history.SchemaVersion {
			fmt.Fprintf(stdout, "note run %s: schema_version %d (this build writes %d); fields unknown to this build are not shown\n",
				r.ID, r.Schema, history.SchemaVersion)
		}
	}

	if *baseline == "" {
		return 0
	}
	base, err := prof.ReadRecords(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "pvcprof history: %v\n", err)
		return 2
	}
	if len(base) == 0 {
		fmt.Fprintf(stdout, "note: baseline %s missing or empty; trend only, no regression check\n", *baseline)
		return 0
	}
	// Gate the newest completed run that recorded FOMs.
	var latest *history.Record
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Status == "done" && len(recs[i].Sim) > 0 {
			latest = &recs[i]
			break
		}
	}
	if latest == nil {
		fmt.Fprintln(stdout, "note: no completed run carries simulated FOMs; nothing to gate")
		return 0
	}
	// Compare only the FOMs both sides carry: a run covers one workload,
	// the baseline the whole bench set.
	ref := base[len(base)-1].Sim
	shared := map[string]float64{}
	for k := range latest.Sim {
		if v, ok := ref[k]; ok {
			shared[k] = v
		}
	}
	if len(shared) == 0 {
		fmt.Fprintf(stdout, "note: run %s shares no FOMs with %s; trend only\n", latest.ID, *baseline)
		return 0
	}
	res := prof.Diff(&prof.Metrics{Sim: shared}, &prof.Metrics{Sim: latest.Sim}, prof.DiffOptions{RelTol: *relTol})
	for _, l := range res.Regressions {
		fmt.Fprintf(stdout, "FAIL %s: baseline %.6g -> run %s %.6g (%+.2f%%)\n", l.Metric, l.Old, latest.ID, l.New, l.Rel*100)
	}
	if res.Failed() {
		fmt.Fprintf(stderr, "pvcprof history: %d FOM regression(s) in run %s vs %s\n", len(res.Regressions), latest.ID, *baseline)
		return 1
	}
	fmt.Fprintf(stdout, "ok: run %s matches %s on %d shared FOM(s)\n", latest.ID, *baseline, len(shared))
	return 0
}
