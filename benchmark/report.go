package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultFile is what -json writes and -compare reads: the latest untraced
// and traced report of each workload.
type resultFile struct {
	Runs   map[string]*report      `json:"runs"`
	Traces map[string]*traceReport `json:"traces"`
}

// readResults reads a result file; a missing one reads as empty.
func readResults(path string) (*resultFile, error) {
	f := &resultFile{Runs: map[string]*report{}, Traces: map[string]*traceReport{}}
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Runs == nil {
		f.Runs = map[string]*report{}
	}
	if f.Traces == nil {
		f.Traces = map[string]*traceReport{}
	}
	return f, nil
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print lists every metric by name with its unit.
func (r *report) print() {
	fmt.Printf("workload %s  seed %d  scale %d  %d %s-loop client(s)  gomaxprocs %d  db parallelism %d\n",
		r.Workload, r.Seed, r.Scale, r.Clients, r.Loop, r.GOMAXPROCS, r.Parallelism)
	fmt.Printf("%d windows of %.2f s after %.2f s warm-up; a timing is the median of the windows, spread is (max-min)/median\n",
		nWindows, r.WindowS, r.WarmupS)
	for _, d := range endToEnd {
		m := r.Metrics[d.Name]
		fmt.Printf("  %-18s %12.4f %-6s spread %5.1f%%  bound %2.0f%%\n", d.Name, m.Value, m.Unit, 100*m.Spread, 100*d.Bound)
	}
	fmt.Printf("  attempted_ops %d  failed_ops %d  failed_share %.4f\n", r.AttemptedOps, r.FailedOps, r.FailedShare)
	fmt.Printf("  latency_p99_ms %.4f ms (diagnostic: %d samples beyond it per window)\n", r.P99ms, r.P99Beyond)
	fmt.Printf("  alloc_mb_per_op %.4f MB  gc_cycles %d\n", r.AllocMBOp, r.GCCycles)
	for _, s := range r.StepShares {
		fmt.Printf("  step %-10s %8.3f ms  %5.1f%% of a session\n", s.Step, s.MeanMS, 100*s.Share)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

func (r *traceReport) print() {
	fmt.Printf("workload %s  seed %d  scale %d  traced, 1 caller: %d untraced then %d traced operations\n",
		r.Workload, r.Seed, r.Scale, r.UntracedOps, r.TracedOps)
	printLayerTable(r.Layers, max(r.TracedOps, 1))
	for _, d := range perLayer {
		m := r.Metrics[d.Name]
		fmt.Printf("  %-26s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// relative change, the bound and a verdict, and reports whether any metric
// got worse. A metric whose windows on either side lie further apart than
// the bound cannot be resolved at that bound.
func compareFiles(w io.Writer, basePath, candPath string) (worse bool, err error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	for _, wl := range workloads {
		name := wl.name
		b, c := base.Runs[name], cand.Runs[name]
		if b == nil || c == nil {
			fmt.Fprintf(w, "%-14s missing on one side\n", name)
			continue
		}
		for _, d := range endToEnd {
			bm, cm := b.Metrics[d.Name], c.Metrics[d.Name]
			v := verdict(d, bm, cm)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %+8.1f%% %5.0f%%  %s\n",
				name, d.Name, bm.Value, cm.Value, 100*(cm.Value/bm.Value-1), 100*d.Bound, v)
		}
		if c.FailedOps > 0 {
			worse = true
			fmt.Fprintf(w, "%-14s %d of %d operations failed on the candidate: worse\n", name, c.FailedOps, c.AttemptedOps)
		}
	}
	return worse, nil
}

// verdict judges one metric of one workload: "worse" when the candidate is
// worse than the baseline by more than the bound, "unresolved" when either
// side's windows are spread wider than the bound, "ok" otherwise.
func verdict(d metricDef, base, cand metric) string {
	// setup_s is a median of repetitions whose first pays for process
	// start; its spread says nothing about resolution.
	if d.Name != "setup_s" && (base.Spread > d.Bound || cand.Spread > d.Bound) {
		return "unresolved"
	}
	change := cand.Value/base.Value - 1
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return "worse"
	}
	return "ok"
}
