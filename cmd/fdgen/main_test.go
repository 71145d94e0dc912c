package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runDir invokes the command body into a fresh directory and returns the
// printed summary and the generated files by name.
func runDir(t *testing.T, dir string, args ...string) (string, map[string]string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-out", dir), &out); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return out.String(), files
}

// TestFdgenSmoke: the generator writes one loadable TSV per relation and a
// pasteable query line, and prints the seed it used.
func TestFdgenSmoke(t *testing.T) {
	out, files := runDir(t, t.TempDir(), "-r", "3", "-a", "6", "-n", "20", "-m", "9", "-k", "2", "-seed", "7")
	if len(files) != 3 {
		t.Fatalf("wrote %d files, want 3 (%v)", len(files), files)
	}
	for name, data := range files {
		lines := strings.Split(strings.TrimRight(data, "\n"), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: only %d lines", name, len(lines))
		}
		header := strings.Split(lines[0], "\t")
		if len(header) < 2 || !strings.HasPrefix(header[0], "R") {
			t.Fatalf("%s: bad header %q", name, lines[0])
		}
		for _, l := range lines[1:] {
			if len(strings.Split(l, "\t")) != len(header)-1 {
				t.Fatalf("%s: row %q does not match header arity %d", name, l, len(header)-1)
			}
		}
	}
	if !strings.Contains(out, "seed 7") {
		t.Fatalf("summary does not print the seed:\n%s", out)
	}
	// The invocation is fdb's one grammar: a load line per file, then one
	// query line.
	for _, want := range []string{"  fdb 'load ", "r1.tsv' 'load ", "' 'query from R1,R2,R3 eq ", " eq "} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary lacks a pasteable fdb invocation (%q):\n%s", want, out)
		}
	}
	if strings.Contains(out, " -") {
		t.Fatalf("summary still spells flags:\n%s", out)
	}
}

// TestFdgenDeterministic: the same seed writes byte-identical datasets and
// suggests the same query; a different seed diverges.
func TestFdgenDeterministic(t *testing.T) {
	args := []string{"-r", "2", "-a", "5", "-n", "50", "-m", "12", "-dist", "zipf", "-seed", "42"}
	outA, filesA := runDir(t, t.TempDir(), args...)
	outB, filesB := runDir(t, t.TempDir(), args...)
	if len(filesA) != len(filesB) {
		t.Fatalf("file sets differ: %d vs %d", len(filesA), len(filesB))
	}
	for name, data := range filesA {
		if filesB[name] != data {
			t.Fatalf("%s differs between two runs with the same seed", name)
		}
	}
	// The summary differs only in the load paths (temp dirs).
	if qa, qb := afterFrom(outA), afterFrom(outB); qa != qb {
		t.Fatalf("suggested queries differ between identical seeds:\n%s\n%s", qa, qb)
	}
	outC, filesC := runDir(t, t.TempDir(), "-r", "2", "-a", "5", "-n", "50", "-m", "12", "-dist", "zipf", "-seed", "43")
	same := true
	for name, data := range filesA {
		if filesC[name] != data {
			same = false
		}
	}
	if same && afterFrom(outA) == afterFrom(outC) {
		t.Fatal("different seeds produced identical output")
	}
}

// TestFdgenBadFlags: unknown distributions are rejected.
func TestFdgenBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dist", "pareto", "-out", t.TempDir()}, &out); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

// afterFrom strips everything before the path-independent query line of
// the suggested invocation.
func afterFrom(s string) string {
	if i := strings.Index(s, "'query from"); i >= 0 {
		return s[i:]
	}
	return s
}
