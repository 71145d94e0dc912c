package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {1, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	// Nearest rank: 15 of 300 samples lie beyond the 95th percentile.
	big := make([]float64, 300)
	for i := range big {
		big[i] = float64(i)
	}
	if got := percentile(big, 95); got != 284 {
		t.Errorf("percentile(0..299, 95) = %v, want 284", got)
	}
}

func TestMedianOfWindows(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread(9,10,12) = %v, want 0.3", got)
	}

	// Three one-second windows; an operation belongs to the window it ends
	// in, warm-up and overrun are not measured, failures count but carry no
	// latency. One noisy window does not move the reported median.
	ms := time.Millisecond
	samples := []sample{
		{end: -5 * ms, lat: 99 * ms, ok: true}, // warm-up
		{end: 100 * ms, lat: 10 * ms, ok: true},
		{end: 900 * ms, lat: 20 * ms, ok: true},
		{end: 1500 * ms, lat: 500 * ms, ok: true},
		{end: 1600 * ms, lat: 30 * ms, ok: false},
		{end: 2100 * ms, lat: 12 * ms, ok: true},
		{end: 2200 * ms, lat: 14 * ms, ok: true},
		{end: 2300 * ms, lat: 16 * ms, ok: true},
		{end: 3001 * ms, lat: 99 * ms, ok: true}, // past the last window
	}
	ws := windows(samples, 3, time.Second)
	wantOps, wantP50 := []int{2, 2, 3}, []float64{10, 500, 14}
	var p50 []float64
	for i, w := range ws {
		if w.Ops != wantOps[i] || w.P50ms != wantP50[i] {
			t.Errorf("window %d: %d ops, p50 %v; want %d ops, p50 %v", i, w.Ops, w.P50ms, wantOps[i], wantP50[i])
		}
		p50 = append(p50, w.P50ms)
	}
	if ws[1].Failed != 1 || ws[1].ThroughputOps != 1 {
		t.Errorf("window 1: %d failed, %v ops/s; want 1 failed and 1 verified op/s", ws[1].Failed, ws[1].ThroughputOps)
	}
	if got := median(p50); got != 14 {
		t.Errorf("median of the windows' p50 = %v, want 14", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100] has children exec (40 long, timed after the op) and rows
	// (25 long); exec has children filter (5) and build (30); a second
	// operation has no children at all.
	spans := []span{
		{ID: 0, Parent: noParent, Op: 0, Name: spanOp, Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Name: spanExec, Start: 100, End: 140},
		{ID: 2, Parent: 1, Op: 0, Name: spanFilter, Start: 140, End: 145},
		{ID: 3, Parent: 1, Op: 0, Name: spanBuild, Start: 145, End: 175},
		{ID: 4, Parent: 0, Op: 0, Name: spanRows, Start: 175, End: 200},
		{ID: 5, Parent: noParent, Op: 1, Name: spanOp, Start: 200, End: 300},
		{ID: 6, Parent: 5, Op: 1, Name: spanRows, Start: 300, End: 500}, // longer than its parent
	}
	want := []int64{35, 5, 5, 30, 25, 0, 200}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got, want[i])
		}
	}
	rows := map[string]layerRow{}
	for _, r := range layerTable(spans) {
		rows[r.Name] = r
	}
	if r := rows[unattributedName]; r.Count != 2 || r.SelfMS != 35e-6 || math.Abs(r.Share-0.175) > 1e-12 {
		t.Errorf("unattributed row = %+v, want 2 spans, 35 ns self, 17.5%% of the operations' 200 ns", r)
	}
	if r := rows[spanBuild]; r.Count != 1 || math.Abs(r.Share-0.15) > 1e-12 {
		t.Errorf("build row = %+v, want 1 span with a 15%% share", r)
	}
}

// smoke is the run shape the tests use: the smallest data, 200 ms windows.
func smoke(workload string) config {
	return config{workload: workload, seed: 7, scale: 1, setups: 2, warmup: 100 * time.Millisecond, window: 200 * time.Millisecond}
}

// benchmarkJSON reads the declaration the driver reads.
func benchmarkJSON(t *testing.T) (decl struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	decl := benchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, declared, have []metricDef) {
		if len(declared) != len(have) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program has %d", kind, len(declared), len(have))
		}
		for i := range have {
			if declared[i] != have[i] {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the program %+v", kind, i, declared[i], have[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}

func TestEveryWorkloadVerifiesAndReportsEveryMetric(t *testing.T) {
	decl := benchmarkJSON(t)
	for _, wl := range workloads {
		name := wl.name
		t.Run(name, func(t *testing.T) {
			rep, err := run(smoke(name))
			if err != nil {
				t.Fatal(err)
			}
			if rep.FailedOps != 0 || rep.AttemptedOps == 0 {
				t.Fatalf("%d of %d operations failed: %v", rep.FailedOps, rep.AttemptedOps, rep.Failures)
			}
			for _, d := range decl.EndToEnd {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			if line := driverLine(rep.AttemptedOps, rep.FailedOps, rep.Metrics); !line.Correct || len(line.Metrics) != len(decl.EndToEnd) {
				t.Errorf("driver line = %+v, want correct with %d metrics", line, len(decl.EndToEnd))
			}
		})
	}
}

func TestTracedDecompositionIsByteEqual(t *testing.T) {
	decl := benchmarkJSON(t)
	for _, wl := range workloads {
		name := wl.name
		t.Run(name, func(t *testing.T) {
			// A traced operation fails unless its decomposed execution
			// yields the whole one's bytes, for every statement it runs.
			rep, err := runTraced(smoke(name), "")
			if err != nil {
				t.Fatal(err)
			}
			if rep.FailedOps != 0 || rep.TracedOps == 0 {
				t.Fatalf("%d operations failed, %d were traced: %v", rep.FailedOps, rep.TracedOps, rep.Failures)
			}
			for _, d := range decl.PerLayer {
				if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("metric %s = %+v, want a value in %s", d.Name, m, d.Unit)
				}
			}
			if u := rep.Metrics["unattributed_pct"].Value; !(u >= 0 && u < 100) {
				t.Errorf("unattributed_pct = %v", u)
			}
		})
	}
}

func TestCorruptedExpectationFailsTheRun(t *testing.T) {
	cfg := smoke("scan")
	dir := t.TempDir()
	wl, scale, setups, err := runSetups(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wl.close()
	if err := wl.expect(); err != nil {
		t.Fatal(err)
	}
	wl.(*scanWL).proj.hash ^= 1
	rep := measure(cfg, wl, scale, setups)
	if rep.FailedOps == 0 || rep.FailedOps != rep.AttemptedOps || len(rep.Failures) == 0 {
		t.Fatalf("%d of %d operations failed with a corrupted expected hash; want all", rep.FailedOps, rep.AttemptedOps)
	}
	if line := driverLine(rep.AttemptedOps, rep.FailedOps, rep.Metrics); line.Correct || exitCode(line.Correct) == 0 {
		t.Errorf("a run with failed operations reports correct=%v and exit code %d", line.Correct, exitCode(line.Correct))
	}
}

func TestCompareVerdicts(t *testing.T) {
	tput := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	p50 := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		d          metricDef
		base, cand metric
		want       string
	}{
		{tput, metric{Value: 100}, metric{Value: 95}, "ok"},
		{tput, metric{Value: 100}, metric{Value: 85}, "worse"},
		{tput, metric{Value: 100}, metric{Value: 130}, "ok"},
		{p50, metric{Value: 10}, metric{Value: 11.5}, "worse"},
		{p50, metric{Value: 10}, metric{Value: 9}, "ok"},
		{p50, metric{Value: 10, Spread: 0.2}, metric{Value: 9}, "unresolved"},
		{p50, metric{Value: 10}, metric{Value: 20, Spread: 0.11}, "unresolved"},
	} {
		if got := verdict(c.d, c.base, c.cand); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.Name, c.base, c.cand, got, c.want)
		}
	}
}

func TestGeneratorIsDeterministicAndBalanced(t *testing.T) {
	a, b := generate(11, 2), generate(11, 2)
	for i := range a.tables {
		if len(a.tables[i].rows) != len(b.tables[i].rows) {
			t.Fatalf("%s: %d rows, then %d", a.tables[i].name, len(a.tables[i].rows), len(b.tables[i].rows))
		}
		for j := range a.tables[i].rows {
			for k := range a.tables[i].rows[j] {
				if a.tables[i].rows[j][k] != b.tables[i].rows[j][k] {
					t.Fatalf("%s row %d differs between two generations from one seed", a.tables[i].name, j)
				}
			}
		}
	}
	want := map[string]int{"Orders": 1000, "Stock": 400, "Disp": 200, "Produce": 200, "Serve": 120}
	for _, tb := range a.tables {
		distinct := map[[2]interface{}]bool{}
		for _, r := range tb.rows {
			distinct[[2]interface{}{r[0], r[1]}] = true
		}
		if len(tb.rows) != want[tb.name] || len(distinct) != len(tb.rows) {
			t.Errorf("%s: %d rows, %d distinct; want %d distinct rows", tb.name, len(tb.rows), len(distinct), want[tb.name])
		}
	}
	if c := generate(12, 2); c.tables[1].rows[0][0] == a.tables[1].rows[0][0] && c.tables[1].rows[1][0] == a.tables[1].rows[1][0] && c.tables[1].rows[2][0] == a.tables[1].rows[2][0] {
		t.Error("two seeds generated the same Stock rows")
	}
}
