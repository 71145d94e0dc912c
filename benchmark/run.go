package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	fdb "repro"
)

// workload is one set of inputs and the closed-loop operation run over it.
type workload interface {
	// callers is the fixed number of closed-loop callers.
	callers() int
	// setup is what setup_s times: generate the inputs from the seed, load
	// the engine, (save and reopen a snapshot,) start the server, connect,
	// prepare, and execute every statement once. dir is scratch space.
	setup(seed int64, scale int, dir string) error
	// expect evaluates with the flat oracle everything an operation can
	// return. It runs after setup and is not part of setup_s.
	expect() error
	// newClient returns caller c's operation: issue the requests, stamp the
	// latency, then verify the replies. A refused, errored or wrongly
	// answered operation returns an error.
	newClient(c int, rng *rand.Rand) func() (time.Duration, error)
	// finish runs the checks that need the callers to have stopped.
	finish() error
	database() *fdb.DB
	close()
}

// spec is a workload's name and fixed sizing.
type spec struct {
	name  string
	scale int
	make  func() workload
}

// workloads lists the workloads in the order runs and reports use.
var workloads = []spec{
	{"point", 8, func() workload { return &pointWL{} }},
	{"scan", 1, func() workload { return &scanWL{} }},
	{"write_refresh", 2, func() workload { return &writeWL{} }},
	{"session", 3, func() workload { return &sessionWL{} }},
}

// config is one invocation's run shape. The shape is the same for every
// workload; only tests shrink it.
type config struct {
	workload string
	seed     int64
	scale    int // 0: the workload's own
	setups   int // set-up repetitions; setup_s is their median
	warmup   time.Duration
	window   time.Duration // one of the nWindows measured windows
}

const nWindows = 3

// metric is one reported number: the run's value (for a timing, the median
// of the windows), its unit, the windows it came from and their spread.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Spread  float64   `json:"spread,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

// report is everything one untraced run measured.
type report struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Scale       int     `json:"scale"`
	Clients     int     `json:"clients"`
	Loop        string  `json:"loop"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Parallelism int     `json:"db_parallelism"`
	WindowS     float64 `json:"window_s"`
	WarmupS     float64 `json:"warmup_s"`

	Metrics map[string]metric `json:"metrics"`

	AttemptedOps int      `json:"attempted_ops"`
	FailedOps    int      `json:"failed_ops"`
	FailedShare  float64  `json:"failed_share"`
	Failures     []string `json:"failures,omitempty"`
	// P99 is diagnostic only: too few samples lie beyond it to repeat.
	P99ms      float64   `json:"latency_p99_ms"`
	P99Beyond  int       `json:"latency_p99_samples_beyond"`
	SetupRuns  []float64 `json:"setup_runs_s"`
	PerWindow  []window  `json:"windows"`
	AllocMBOp  float64   `json:"alloc_mb_per_op"`
	GCCycles   uint32    `json:"gc_cycles"`
	StepShares []share   `json:"step_shares,omitempty"`
}

// share is one step's part of an operation's time (session only).
type share struct {
	Step   string  `json:"step"`
	MeanMS float64 `json:"mean_ms"`
	Share  float64 `json:"share"`
}

// stepTimer is implemented by workloads whose operation has named steps.
type stepTimer interface{ stepShares() []share }

// processStart is taken as early as the runtime allows: the first set-up's
// time runs from here.
var processStart = time.Now()

// runSetups sets the workload up cfg.setups times, tearing all but the last
// down again, and returns each repetition's time. The first is timed from
// process start.
func runSetups(cfg config, dir string) (workload, int, []float64, error) {
	var sp spec
	for _, w := range workloads {
		if w.name == cfg.workload {
			sp = w
		}
	}
	if sp.make == nil {
		return nil, 0, nil, fmt.Errorf("unknown workload %q: want point, scan, write_refresh or session", cfg.workload)
	}
	scale := cfg.scale
	if scale == 0 {
		scale = sp.scale
	}
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		wl := sp.make()
		if err := wl.setup(cfg.seed, scale, dir); err != nil {
			return nil, 0, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == cfg.setups-1 {
			return wl, scale, times, nil
		}
		wl.close()
		// Every repetition starts from a collected heap, like the first.
		runtime.GC()
	}
}

// drive runs the workload's callers closed-loop from now until total has
// passed and returns every operation's sample, timed relative to zero.
func drive(wl workload, seed int64, zero time.Time, total time.Duration, fails *failLog) []sample {
	deadline := zero.Add(total)
	perClient := make([][]sample, wl.callers())
	var wg sync.WaitGroup
	for c := 0; c < wl.callers(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			op := wl.newClient(c, rand.New(rand.NewSource(seed<<8+int64(c))))
			for time.Now().Before(deadline) {
				lat, err := op()
				if err != nil {
					fails.add(err)
				}
				perClient[c] = append(perClient[c], sample{end: time.Since(zero), lat: lat, ok: err == nil})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// failLog keeps the first few failures for the report.
type failLog struct {
	mu   sync.Mutex
	msgs []string
}

func (f *failLog) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, err.Error())
	}
}

// run performs one untraced run: set-up, oracle, then measure.
func run(cfg config) (*report, error) {
	dir, err := os.MkdirTemp("", "fdbbench-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch files; nothing to do about a leftover

	wl, scale, setups, err := runSetups(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	if err := wl.expect(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return measure(cfg, wl, scale, setups), nil
}

// measure drives a set-up workload through warm-up and nWindows measured
// windows, runs the end-of-run checks and takes the resident heap.
func measure(cfg config, wl workload, scale int, setups []float64) *report {
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Scale: scale, Clients: wl.callers(),
		Loop:       "closed",
		GOMAXPROCS: runtime.GOMAXPROCS(0), Parallelism: wl.database().Parallelism(),
		WindowS: cfg.window.Seconds(), WarmupS: cfg.warmup.Seconds(),
		SetupRuns: setups,
	}
	fails := &failLog{}

	runtime.GC()
	var before, after runtime.MemStats
	start := time.Now()
	zero := start.Add(cfg.warmup)
	// MemStats deltas cover warm-up too; they are per operation, so that
	// does not matter.
	runtime.ReadMemStats(&before)
	samples := drive(wl, cfg.seed, zero, nWindows*cfg.window, fails)
	runtime.ReadMemStats(&after)

	rep.PerWindow = windows(samples, nWindows, cfg.window)
	// A failed end-of-run check is one more failed operation.
	if err := wl.finish(); err != nil {
		fails.add(err)
		rep.AttemptedOps++
		rep.FailedOps++
	}
	rep.Failures = fails.msgs
	var tput, p50, p95, p99 []float64
	for _, w := range rep.PerWindow {
		rep.AttemptedOps += w.Ops
		rep.FailedOps += w.Failed
		tput = append(tput, w.ThroughputOps)
		p50 = append(p50, w.P50ms)
		p95 = append(p95, w.P95ms)
		p99 = append(p99, w.P99ms)
	}
	if rep.AttemptedOps > 0 {
		rep.FailedShare = float64(rep.FailedOps) / float64(rep.AttemptedOps)
	}
	rep.P99ms = median(p99)
	rep.P99Beyond = (rep.AttemptedOps - rep.FailedOps) / nWindows / 100
	if n := len(samples); n > 0 {
		rep.AllocMBOp = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(n)
	}
	rep.GCCycles = after.NumGC - before.NumGC
	if st, ok := wl.(stepTimer); ok {
		rep.StepShares = st.stepShares()
	}

	// The resident heap: database, memoised encodings, plan cache and the
	// idle server. The callers' buffers and samples are garbage by now, and
	// the workload has dropped its generated rows; the oracle keeps hashes.
	samples = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	windowed := func(vals []float64, unit string) metric {
		return metric{Value: median(vals), Unit: unit, Spread: spread(vals), Windows: vals}
	}
	rep.Metrics = map[string]metric{
		"setup_s":          {Value: median(setups), Unit: "s", Spread: spread(setups)},
		"throughput_ops_s": windowed(tput, "ops/s"),
		"latency_p50_ms":   windowed(p50, "ms"),
		"latency_p95_ms":   windowed(p95, "ms"),
		"live_heap_mb":     {Value: float64(after.HeapAlloc) / (1 << 20), Unit: "MB"},
	}
	return rep
}
