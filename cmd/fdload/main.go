// Command fdload drives a wire server with a deterministic load sweep —
// connection counts × workload mixes (read-only, 90/10 read-write,
// snapshot-heavy) — as an integration test of the protocol: in the
// read-only and snapshot mixes every wire response is checked byte for byte
// against library API execution of the same statement on an identical
// in-process database, and the mixed cell restores the seed state and
// verifies the restoration. Any protocol error or divergence fails the run.
// It measures nothing; benchmark/ is the load measurement.
//
//	fdload -conns 1,4 -mixes read,mixed,snapshot -duration 3s
//
// With no -addr, fdload starts its own server in-process on a free port.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	cfg := config{}
	var conns, mixes string
	flag.StringVar(&cfg.addr, "addr", "", "server address (empty: start an in-process server)")
	flag.StringVar(&conns, "conns", "1,4", "comma-separated connection counts to sweep")
	flag.StringVar(&mixes, "mixes", "read,mixed,snapshot", "comma-separated workload mixes (read, mixed, snapshot)")
	flag.DurationVar(&cfg.duration, "duration", 3*time.Second, "wall time per sweep cell")
	flag.Int64Var(&cfg.seed, "seed", 42, "deterministic workload seed")
	flag.IntVar(&cfg.scale, "scale", 1, "retailer workload scale")
	flag.Parse()

	var err error
	if cfg.conns, err = parseInts(conns); err != nil {
		fmt.Fprintf(os.Stderr, "fdload: -conns: %v\n", err)
		os.Exit(2)
	}
	cfg.mixes = strings.Split(mixes, ",")
	for _, m := range cfg.mixes {
		if m != mixRead && m != mixMixed && m != mixSnapshot {
			fmt.Fprintf(os.Stderr, "fdload: unknown mix %q (want read, mixed or snapshot)\n", m)
			os.Exit(2)
		}
	}

	sum, err := runLoad(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdload: %v\n", err)
		os.Exit(1)
	}
	if sum.TotalErrors > 0 || sum.TotalDivergences > 0 {
		fmt.Fprintf(os.Stderr, "fdload: FAILED: %d protocol errors, %d divergences\n",
			sum.TotalErrors, sum.TotalDivergences)
		os.Exit(1)
	}
	fmt.Printf("fdload: OK: %d ops across %d cells, zero errors, zero divergences\n",
		sum.TotalOps, len(sum.Cells))
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
