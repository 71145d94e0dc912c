package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestRun drives the generic printer over a stand-in table: headers and rows
// print as the table holds them, entries sharing an ID run together, and an
// experiment that fails — a parity divergence, a missed bar — fails the run
// after printing what it measured.
func TestRun(t *testing.T) {
	missed := errors.New("bar missed")
	table := []bench.Experiment{
		{ID: 1, Title: "ok", Run: func(bench.Config) (bench.Table, error) {
			return bench.Table{Header: []string{"one", "a b"}, Rows: [][]string{{"1", "2"}}}, nil
		}},
		{ID: 1, Title: "second part", Run: func(bench.Config) (bench.Table, error) {
			return bench.Table{Header: []string{"c"}, Rows: [][]string{{"3"}}}, nil
		}},
		{ID: 2, Title: "fails", Run: func(bench.Config) (bench.Table, error) {
			return bench.Table{Header: []string{"d"}, Rows: [][]string{{"4"}}}, missed
		}},
	}
	var out strings.Builder
	if err := run(&out, table, 1, bench.Config{Runs: 1}); err != nil {
		t.Fatal(err)
	}
	if want := "# one\n# a b\n1 2\n# c\n3\n"; out.String() != want {
		t.Fatalf("printed %q, want %q", out.String(), want)
	}
	out.Reset()
	if err := run(&out, table, 0, bench.Config{Runs: 1}); !errors.Is(err, missed) {
		t.Fatalf("run over a failing experiment returned %v", err)
	}
	if !strings.HasSuffix(out.String(), "# d\n4\n") {
		t.Fatalf("the failing experiment's partial table was not printed: %q", out.String())
	}
	if err := run(&out, table, 7, bench.Config{Runs: 1}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}
