package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the sample at or
// below it. An empty sample has no percentile; it reports 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the middle two for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max - min) / median: how far apart a metric's windows lie,
// as a share of the value the run reports.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) == 0 || m == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / m
}

// sample is one completed closed-loop operation: when it ended, relative to
// the start of measurement (negative during warm-up), how long it took, and
// whether its answer verified.
type sample struct {
	end time.Duration
	lat time.Duration
	ok  bool
}

// window is the timing of one measured window.
type window struct {
	Ops           int     `json:"ops"`
	Failed        int     `json:"failed"`
	ThroughputOps float64 `json:"throughput_ops_s"`
	P50ms         float64 `json:"latency_p50_ms"`
	P95ms         float64 `json:"latency_p95_ms"`
	P99ms         float64 `json:"latency_p99_ms"`
}

// windows buckets samples by completion time into n consecutive windows of
// length win starting at 0; operations that ended during warm-up or after
// the last window are not measured. Throughput counts verified operations;
// latency percentiles are over verified operations too, and a run with any
// failed operation exits non-zero, so a failure cannot flatter them.
func windows(samples []sample, n int, win time.Duration) []window {
	lats := make([][]float64, n)
	out := make([]window, n)
	for _, s := range samples {
		if s.end < 0 {
			continue
		}
		w := int(s.end / win)
		if w >= n {
			continue
		}
		out[w].Ops++
		if !s.ok {
			out[w].Failed++
			continue
		}
		lats[w] = append(lats[w], float64(s.lat)/float64(time.Millisecond))
	}
	for w := range out {
		sort.Float64s(lats[w])
		out[w].ThroughputOps = float64(len(lats[w])) / win.Seconds()
		out[w].P50ms = percentile(lats[w], 50)
		out[w].P95ms = percentile(lats[w], 95)
		out[w].P99ms = percentile(lats[w], 99)
	}
	return out
}
