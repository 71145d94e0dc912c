package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// tracedWorkload is a workload that can also run its operation traced: once
// whole under a root span, then decomposed into layer calls.
type tracedWorkload interface {
	workload
	// traceInit derives, outside measurement, what the decomposition needs.
	traceInit() error
	traceOp(tr *tracer, rng *rand.Rand) error
}

// storeTimer is implemented by the workload whose set-up saves and reopens
// a snapshot file.
type storeTimer interface {
	storeTimes() (save, open time.Duration, fileBytes int64)
}

// traceReport is everything one traced run measured.
type traceReport struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Scale       int               `json:"scale"`
	Clients     int               `json:"clients"`
	TracedOps   int               `json:"traced_ops"`
	UntracedOps int               `json:"untraced_ops"`
	FailedOps   int               `json:"failed_ops"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Layers      []layerRow        `json:"layers"`
}

// runTraced performs one traced run with a single caller: a third of the
// measured time untraced, for the allocation counters and as the baseline
// the tracing overhead is measured against, then two thirds traced.
func runTraced(cfg config, spansPath string) (*traceReport, error) {
	dir, err := os.MkdirTemp("", "fdbbench-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch files; nothing to do about a leftover

	cfg.setups = 1
	w, scale, _, err := runSetups(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer w.close()
	wl, ok := w.(tracedWorkload)
	if !ok {
		return nil, fmt.Errorf("workload %q has no traced mode", cfg.workload)
	}
	if err := wl.expect(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := wl.traceInit(); err != nil {
		return nil, fmt.Errorf("decomposition: %w", err)
	}
	rep := &traceReport{Workload: cfg.workload, Seed: cfg.seed, Scale: scale, Clients: 1}
	fails := &failLog{}
	rng := rand.New(rand.NewSource(cfg.seed << 8))
	cache0 := wl.database().CacheStats()

	// Untraced: the same single caller.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	op := wl.newClient(0, rng)
	var untraced time.Duration
	for end := time.Now().Add(cfg.window); time.Now().Before(end); {
		lat, err := op()
		if err != nil {
			fails.add(err)
			rep.FailedOps++
		}
		untraced += lat
		rep.UntracedOps++
	}
	runtime.ReadMemStats(&after)

	tr := newTracer()
	for end := time.Now().Add((nWindows - 1) * cfg.window); time.Now().Before(end); tr.op++ {
		if err := wl.traceOp(tr, rng); err != nil {
			fails.add(err)
			rep.FailedOps++
		}
	}
	rep.TracedOps = tr.op
	if err := wl.finish(); err != nil {
		fails.add(err)
		rep.FailedOps++
	}
	rep.Failures = fails.msgs
	cache1 := wl.database().CacheStats()

	if spansPath != "" {
		if err := writeSpans(spansPath, tr.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	// Fold the spans into the per-layer metrics.
	ops := float64(max(rep.TracedOps, 1))
	self := selfTimes(tr.spans)
	total, selfOf := map[string]float64{}, map[string]float64{}
	for i, s := range tr.spans {
		total[s.Name] += float64(s.dur()) / 1e6
		selfOf[s.Name] += float64(self[i]) / 1e6
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"relation.filter_ms":        total[spanFilter] / ops,
		"relation.examined_per_row": ratio(tr.counts["examined"], tr.counts["rows_out"]),
		"fbuild.build_ms":           total[spanBuild] / ops,
		"fbuild.singletons":         ratio(tr.counts["built_singletons"], tr.counts["builds"]),
		"fdb.exec_ms":               total[spanExec] / ops,
		"fdb.exec_self_ms":          selfOf[spanExec] / ops,
		"fdb.refresh_ms":            total[spanRefresh] / ops,
		"delta.write_ms":            total[spanWrite] / ops,
		"fdb.rows_ms":               total[spanRows] / ops,
		"fdb.rows_out":              tr.counts["rows_out"] / ops,
		"wire.encode_rows_ms":       total[spanEncodeRows] / ops,
		"wire.decode_rows_ms":       total[spanDecodeRows] / ops,
		"wire.reply_bytes":          tr.counts["reply_bytes"] / ops,
		"fdb.prepare_cold_ms":       total[spanPrepareCold] / ops,
		"fdb.plancache_hit_ratio": ratio(float64(cache1.Hits-cache0.Hits),
			float64(cache1.Hits-cache0.Hits+cache1.Misses-cache0.Misses)),
		"opt.ftree_ms":       total[spanFTreeSearch] / ops,
		"opt.fplan_ms":       total[spanFPlanSearch] / ops,
		"fplan.apply_ms":     total[spanApply] / ops,
		"fplan.fallback_ops": tr.counts["fallback_ops"] / ops,
		"frep.aggregate_ms":  total[spanAggregate] / ops,
		"frep.enumerate_ms":  total[spanEnumerate] / ops,
		"frep.ordered_ms":    total[spanOrdered] / ops,
		"frep.setop_ms":      total[spanSetOpEnc] / ops,
		"frep.compression":   ratio(tr.counts["flat_values"], tr.counts["singletons"]),
		"alloc_mb_per_op":    ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(rep.UntracedOps)),
		"gc_cycles":          float64(after.NumGC - before.NumGC),
		"unattributed_pct":   100 * ratio(selfOf[spanOp], total[spanOp]),
		// How far the decomposed re-execution and the span recording
		// disturb the whole operation's own timing.
		"trace_overhead_pct": 100 * (ratio(total[spanOp]/ops, float64(untraced)/1e6/float64(max(rep.UntracedOps, 1))) - 1),
	}
	if _, overWire := total[spanDecodeReq]; overWire {
		// Over the wire, what no layer span covers is framing, admission,
		// the socket and scheduling.
		m["wire.roundtrip_self_ms"] = selfOf[spanOp] / ops
	}
	if st, ok := w.(storeTimer); ok {
		save, open, size := st.storeTimes()
		m["store.save_ms"] = float64(save) / 1e6
		m["store.open_ms"] = float64(open) / 1e6
		m["store.file_mb"] = float64(size) / (1 << 20)
	}
	rep.Metrics = map[string]metric{}
	for _, d := range perLayer {
		rep.Metrics[d.Name] = metric{Value: m[d.Name], Unit: d.Unit}
	}
	rep.Layers = layerTable(tr.spans)
	return rep, nil
}
