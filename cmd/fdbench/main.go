// Command fdbench prints the experiment tables of internal/bench: the data
// series of every figure in the paper's evaluation (Section 5) plus the
// FDB-vs-flat comparisons for aggregation, top-k and set algebra. `fdbench -h`
// lists them.
//
//	fdbench -exp 3            # one experiment (every table entry with that ID)
//	fdbench -exp 0 -runs 1    # all of them, once: what CI runs
//
// Every experiment checks its legs against each other before it reports a
// timing; a parity divergence or a missed bar fails the process. The numbers
// are curves to read, not a gate — the gate is `bash benchmark/run.sh`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.Int("exp", 0, "experiment to run (0 = all)")
	cfg := bench.Config{}
	flag.IntVar(&cfg.Runs, "runs", 3, "repetitions per configuration")
	flag.Int64Var(&cfg.Seed, "seed", 42, "random seed")
	flag.DurationVar(&cfg.Timeout, "timeout", 20*time.Second, "flat-engine budget per query (experiments 3 and 4)")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: fdbench [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(flag.CommandLine.Output(), "experiments:")
		for _, e := range bench.Experiments {
			fmt.Fprintf(flag.CommandLine.Output(), "  %2d  %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()
	if cfg.Runs < 1 {
		fmt.Fprintln(os.Stderr, "fdbench: -runs must be at least 1")
		os.Exit(2)
	}
	if err := run(os.Stdout, bench.Experiments, *exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fdbench:", err)
		os.Exit(1)
	}
}

// run prints every entry of table with the given ID (0: all of them), and
// stops at the first experiment that fails.
func run(out io.Writer, table []bench.Experiment, id int, cfg bench.Config) error {
	ran := false
	for _, e := range table {
		if id != 0 && e.ID != id {
			continue
		}
		ran = true
		t, err := e.Run(cfg)
		// What the experiment measured before it failed is part of the report.
		for _, h := range t.Header {
			fmt.Fprintln(out, "#", h)
		}
		for _, row := range t.Rows {
			fmt.Fprintln(out, strings.Join(row, " "))
		}
		if err != nil {
			return fmt.Errorf("experiment %d (%s): %w", e.ID, e.Title, err)
		}
	}
	if !ran {
		return fmt.Errorf("no experiment %d (see -h)", id)
	}
	return nil
}
