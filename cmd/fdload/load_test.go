package main

import (
	"io"
	"testing"
	"time"
)

// TestRunLoadSmoke runs the full sweep (all three mixes, two connection
// counts) against an in-process server and requires zero protocol errors
// and zero divergences — the same check CI's server job runs via the
// binary.
func TestRunLoadSmoke(t *testing.T) {
	cfg := config{
		conns:    []int{1, 2},
		mixes:    []string{mixRead, mixMixed, mixSnapshot},
		duration: 400 * time.Millisecond,
		seed:     42,
		scale:    1,
	}
	sum, err := runLoad(cfg, io.Discard)
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if len(sum.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(sum.Cells))
	}
	if sum.TotalErrors != 0 || sum.TotalDivergences != 0 {
		t.Fatalf("load run not clean: %d errors, %d divergences", sum.TotalErrors, sum.TotalDivergences)
	}
	if sum.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	for _, c := range sum.Cells {
		if c.Mix == mixRead && c.Checked == 0 {
			t.Fatalf("read cell conns=%d checked nothing", c.Conns)
		}
	}
}

// TestParseInts covers the sweep-list flag parser.
func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 4,16")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("parseInts: %v %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "x", "1,,2"} {
		if _, err := parseInts(bad); err == nil {
			t.Fatalf("parseInts(%q) accepted", bad)
		}
	}
}
