// Command fdgen writes synthetic relation files in the tab-separated format
// understood by cmd/fdb, using the workload generators of the paper's
// evaluation: R relations over A attributes with N tuples each, values
// drawn uniformly or Zipf-distributed from [1, M].
//
//	fdgen -r 3 -a 9 -n 1000 -m 100 -dist zipf -out data/
//
// It also prints a ready-to-paste fdb invocation with K random
// non-redundant equalities. All randomness flows from -seed (printed with
// the output), so any generated dataset — including one that surfaced a bug
// — reproduces exactly from that one number.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/csvio"
	"repro/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h printed usage; that is a success
		}
		fmt.Fprintln(os.Stderr, "fdgen:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: parse flags from args, write the
// dataset, print the summary to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fdgen", flag.ContinueOnError)
	r := fs.Int("r", 3, "number of relations")
	a := fs.Int("a", 9, "number of attributes (spread evenly)")
	n := fs.Int("n", 1000, "tuples per relation")
	m := fs.Int("m", 100, "value domain [1, m]")
	k := fs.Int("k", 2, "suggested number of join equalities")
	dist := fs.String("dist", "uniform", "value distribution: uniform or zipf")
	outDir := fs.String("out", ".", "output directory")
	seed := fs.Int64("seed", 1, "random seed (all output derives from it)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	d := gen.Uniform
	if *dist == "zipf" {
		d = gen.Zipf
	} else if *dist != "uniform" {
		return fmt.Errorf("unknown distribution %q", *dist)
	}
	rng := rand.New(rand.NewSource(*seed))
	sch, err := gen.RandomSchema(rng, *r, *a)
	if err != nil {
		return err
	}
	rels := sch.Populate(rng, *n, gen.NewSampler(rng, d, *m))
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	var loads []string
	for _, rel := range rels {
		path := filepath.Join(*outDir, strings.ToLower(rel.Name)+".tsv")
		// Attribute names are global (X1..XA) and carry no "Name." prefix,
		// so they are written as they are; the fdb loader qualifies them.
		if err := csvio.WriteFile(path, rel, nil); err != nil {
			return err
		}
		loads = append(loads, "-load "+path)
	}
	eqs, err := gen.RandomEqualities(rng, sch, *k)
	if err != nil {
		return err
	}
	var names []string
	for _, rel := range rels {
		names = append(names, rel.Name)
	}
	fmt.Fprintf(out, "wrote %d relations to %s (seed %d)\n", len(rels), *outDir, *seed)
	fmt.Fprintf(out, "suggested query:\n  fdb %s -from %s", strings.Join(loads, " "), strings.Join(names, ","))
	for _, e := range eqs {
		// Qualify with relation names for the fdb loader.
		fmt.Fprintf(out, " -eq %s=%s", qualify(sch, string(e.A)), qualify(sch, string(e.B)))
	}
	fmt.Fprintln(out)
	return nil
}

func qualify(s *gen.Schema, attr string) string {
	for i, sch := range s.Relations {
		for _, a := range sch {
			if string(a) == attr {
				return s.Names[i] + "." + attr
			}
		}
	}
	return attr
}
