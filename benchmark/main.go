// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the paper's grocery-retailer data, five end-to-end metrics
// per workload, and a traced mode that attributes an operation's time to the
// engine's layers. See README.md.
//
//	benchmark -workload <name> [-seed N] [-seconds S] [-trace 0|1|spans.jsonl] [-json out.json]
//	benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "workload to run: point, scan, write_refresh or session")
	seed := flag.Int64("seed", 42, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 18, "measured seconds: three windows of a third each")
	trace := flag.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; a path: traced run, spans written there as JSON lines")
	jsonOut := flag.String("json", "", "file to merge this run's full report into")
	compare := flag.Bool("compare", false, "compare two -json files given as arguments: baseline, then candidate")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two files: baseline.json candidate.json")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1, and a run takes no arguments")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		setups:   9,
		warmup:   2 * time.Second,
		window:   time.Duration(*seconds) * time.Second / nWindows,
	}

	var line resultLine
	file, err := readResults(*jsonOut)
	if err != nil && *jsonOut != "" && !os.IsNotExist(err) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *trace == "0" {
		rep, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		rep.print()
		file.Runs[rep.Workload] = rep
		line = driverLine(rep.AttemptedOps, rep.FailedOps, rep.Metrics)
	} else {
		spans := *trace
		if spans == "1" {
			spans = ""
		}
		rep, err := runTraced(cfg, spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		rep.print()
		file.Traces[rep.Workload] = rep
		line = driverLine(rep.UntracedOps+rep.TracedOps, rep.FailedOps, rep.Metrics)
	}
	if *jsonOut != "" {
		if err := file.write(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	// The last line of standard output is the result in the driver's form.
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println(string(b))
	return exitCode(line.Correct)
}

// resultLine is the one JSON object the driver reads.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// driverLine reduces a report to the driver's form: a run is correct when
// every operation it attempted verified.
func driverLine(attempted, failed int, metrics map[string]metric) resultLine {
	line := resultLine{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for name, m := range metrics {
		line.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return line
}

// exitCode is non-zero for a run with a failed operation.
func exitCode(correct bool) int {
	if correct {
		return 0
	}
	return 1
}
