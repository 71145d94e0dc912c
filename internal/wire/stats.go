package wire

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latRing is a bounded reservoir of recent request latencies (nanoseconds):
// the newest ringSize samples, cheap to append under load, percentile-
// queried on demand by the STATS verb.
type latRing struct {
	mu  sync.Mutex
	buf [ringSize]int64
	n   int // total samples ever observed
}

const ringSize = 4096

func (r *latRing) observe(ns int64) {
	r.mu.Lock()
	r.buf[r.n%ringSize] = ns
	r.n++
	r.mu.Unlock()
}

// percentiles returns the p50 and p99 (nearest-rank) of the retained
// window, in nanoseconds; zeros when no samples were observed.
func (r *latRing) percentiles() (p50, p99 int64) {
	r.mu.Lock()
	n := r.n
	if n > ringSize {
		n = ringSize
	}
	s := make([]int64, n)
	copy(s, r.buf[:n])
	r.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(0.50*float64(n-1))], s[int(0.99*float64(n-1))]
}

// qpsWindow tracks per-second request buckets for a sliding-window QPS.
type qpsWindow struct {
	mu      sync.Mutex
	seconds [qpsBuckets]int64 // unix second each bucket covers
	counts  [qpsBuckets]int64
}

const qpsBuckets = 16

func (w *qpsWindow) observe(now time.Time) {
	sec := now.Unix()
	i := int(sec % qpsBuckets)
	w.mu.Lock()
	if w.seconds[i] != sec {
		w.seconds[i] = sec
		w.counts[i] = 0
	}
	w.counts[i]++
	w.mu.Unlock()
}

// rate returns requests/second averaged over the last `window` complete
// seconds (the current partial second is excluded).
func (w *qpsWindow) rate(now time.Time, window int) float64 {
	if window < 1 {
		window = 1
	}
	if window > qpsBuckets-1 {
		window = qpsBuckets - 1
	}
	sec := now.Unix()
	var total int64
	w.mu.Lock()
	for s := sec - int64(window); s < sec; s++ {
		i := int(s % qpsBuckets)
		if w.seconds[i] == s {
			total += w.counts[i]
		}
	}
	w.mu.Unlock()
	return float64(total) / float64(window)
}

// metrics aggregates the server-side counters the STATS verb reports.
type metrics struct {
	start time.Time

	conns      atomic.Int64 // currently open connections
	totalConns atomic.Int64 // connections ever accepted
	shedConns  atomic.Int64 // connections refused at the connection limit

	requests atomic.Int64 // requests completed (any verb)
	errors   atomic.Int64 // requests answered with RespErr (any code)
	shed     atomic.Int64 // requests shed by the admission queue
	timeouts atomic.Int64 // requests failed by the per-request timeout
	panics   atomic.Int64 // request goroutines whose panic was contained
	inflight atomic.Int64 // requests currently executing
	queued   atomic.Int64 // requests waiting in the admission queue

	reads  latRing // Exec latencies
	writes latRing // Insert/Delete/Upsert latencies
	window qpsWindow
}

// Stats is the STATS verb's response body (JSON-encoded on the wire, so
// fields can grow without a protocol bump).
type Stats struct {
	UptimeSec float64 `json:"uptime_sec"`

	Conns      int64 `json:"conns"`
	TotalConns int64 `json:"total_conns"`
	ShedConns  int64 `json:"shed_conns"`

	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	Panics   int64 `json:"panics"`
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`

	QPS1  float64 `json:"qps_1s"`  // over the last complete second
	QPS10 float64 `json:"qps_10s"` // over the last 10 complete seconds

	ReadP50us  float64 `json:"read_p50_us"`
	ReadP99us  float64 `json:"read_p99_us"`
	WriteP50us float64 `json:"write_p50_us"`
	WriteP99us float64 `json:"write_p99_us"`

	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheEntries  int     `json:"cache_entries"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	OpenSnapshots int     `json:"open_snapshots"`
	Version       uint64  `json:"version"` // database write version

	// PlanFallbacks counts f-tree searches that exhausted their exploration
	// budget and kept the greedy tree.
	PlanFallbacks uint64 `json:"plan_fallbacks"`
}
