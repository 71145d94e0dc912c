package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// writeTSVs materialises the test relations and returns their paths.
func writeTSVs(t *testing.T) (orders, store, disp string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	orders = write("orders.tsv", "Orders\toid\titem\n"+
		"o1\tMilk\no1\tCheese\no2\tMelon\no3\tCheese\no3\tMelon\n")
	store = write("store.tsv", "Store\tlocation\titem\n"+
		"Istanbul\tMilk\nIstanbul\tCheese\nIstanbul\tMelon\nIzmir\tMilk\nAntalya\tMilk\nAntalya\tCheese\n")
	disp = write("disp.tsv", "Disp\tdispatcher\tlocation\n"+
		"Adnan\tIstanbul\nAdnan\tIzmir\nYasemin\tIstanbul\nVolkan\tAntalya\n")
	return
}

// TestOrderedQueryGolden locks the ordered-query output down: the same
// ORDER BY/LIMIT invocation must print byte-identical output on every run
// (stable plan, stable streaming order, stable rendering). Regenerate with
// `go test ./cmd/fdb -run Golden -update`.
func TestOrderedQueryGolden(t *testing.T) {
	orders, store, disp := writeTSVs(t)
	var out bytes.Buffer
	args := []string{
		"-load", orders, "-load", store, "-load", disp,
		"-from", "Orders,Store,Disp",
		"-eq", "Orders.item=Store.item",
		"-eq", "Store.location=Disp.location",
		"-orderby", "Orders.item,-Disp.dispatcher",
		"-offset", "1",
		"-limit", "6",
		"-distinct",
		"-rows", "0",
	}
	if err := run(args, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "ordered_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("ordered output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, out.Bytes(), want)
	}
	// Stability across runs, not just against the checked-in file.
	var again bytes.Buffer
	if err := run(args, strings.NewReader(""), &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatal("two identical invocations printed different output")
	}
}

// TestREPLOrderedVerbs drives the REPL grammar for orderby/limit/offset/
// distinct end to end.
func TestREPLOrderedVerbs(t *testing.T) {
	orders, store, disp := writeTSVs(t)
	script := strings.Join([]string{
		"load " + orders,
		"load " + store,
		"load " + disp,
		"query from Orders orderby -Orders.item limit 2",
		"query from Orders,Store eq Orders.item=Store.item project Store.location distinct orderby Store.location",
		"prepare q from Orders orderby Orders.oid,-Orders.item offset 1",
		"exec q",
		"quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := run([]string{"-i", "-rows", "0"}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "error:") {
		t.Fatalf("REPL reported an error:\n%s", s)
	}
	for _, want := range []string{"Melon", "Antalya", "Istanbul", "Izmir", "q compiled"} {
		if !strings.Contains(s, want) {
			t.Fatalf("REPL output misses %q:\n%s", want, s)
		}
	}
	// Distinct projection, ordered: the location rows come back sorted.
	if !strings.Contains(s, "Antalya\nIstanbul\nIzmir\n") {
		t.Fatalf("distinct ordered projection rows missing or out of order:\n%s", s)
	}
}

// TestWriteSnapshotGolden locks the write/snapshot REPL flow down byte for
// byte: read-your-writes (insert/upsert/delete visible to the next query),
// snapshot isolation (a pinned snapshot keeps its rows across writes and a
// compaction), and the loud failure of a released snapshot. Regenerate with
// `go test ./cmd/fdb -run Golden -update`.
func TestWriteSnapshotGolden(t *testing.T) {
	orders, store, disp := writeTSVs(t)
	script := strings.Join([]string{
		"load " + orders,
		"load " + store,
		"load " + disp,
		"query from Orders orderby Orders.oid,Orders.item",
		"insert Orders o4 Milk",
		"query from Orders orderby Orders.oid,Orders.item",
		"snapshot s1",
		"insert Orders o5 Melon",
		"upsert Orders 1 o1 Bread",
		"delete Orders o2 Melon",
		"compact Orders",
		"squery s1 from Orders orderby Orders.oid,Orders.item",
		"query from Orders orderby Orders.oid,Orders.item",
		"release s1",
		"squery s1 from Orders",
		"quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := run([]string{"-i", "-rows", "0"}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "writes_golden.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("write/snapshot output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, out.Bytes(), want)
	}
	// The released snapshot must have failed loudly, not served data.
	if !strings.Contains(out.String(), "error: fdb: snapshot closed") {
		t.Fatalf("released snapshot did not fail loudly:\n%s", out.String())
	}
	// Stability across runs.
	var again bytes.Buffer
	if err := run([]string{"-i", "-rows", "0"}, strings.NewReader(script), &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatal("two identical invocations printed different output")
	}
}

// TestSaveOpenGolden pins the persistence round trip byte for byte: the
// same query printed from the live database, from a REPL-reopened snapshot,
// and from a -open invocation in a fresh process must be identical — the
// snapshot file preserves relations, dictionary codes and plan output
// exactly. Regenerate with `go test ./cmd/fdb -run Golden -update`.
func TestSaveOpenGolden(t *testing.T) {
	orders, store, disp := writeTSVs(t)
	snap := filepath.Join(t.TempDir(), "grocery.fdb")
	query := "query from Orders,Store,Disp eq Orders.item=Store.item eq Store.location=Disp.location orderby Orders.oid,Disp.dispatcher"
	agg := "query from Orders,Store eq Orders.item=Store.item groupby Store.location agg count agg distinct(Orders.item)"
	script := strings.Join([]string{
		"load " + orders,
		"load " + store,
		"load " + disp,
		query,
		agg,
		"save " + snap,
		"open " + snap,
		query,
		agg,
		"quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := run([]string{"-i", "-rows", "0"}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "error:") {
		t.Fatalf("REPL reported an error:\n%s", s)
	}
	// The query output before the save and after the reopen must be byte
	// identical: split on the prompt lines and compare the two report blocks.
	blocks := strings.Split(s, "fdb> ")
	var reports []string
	for _, b := range blocks {
		if strings.HasPrefix(b, "f-tree:") || strings.HasPrefix(b, "groups:") {
			reports = append(reports, b)
		}
	}
	if len(reports) != 4 {
		t.Fatalf("expected 4 query reports, found %d:\n%s", len(reports), s)
	}
	if reports[0] != reports[2] {
		t.Fatalf("join output diverges across save/open:\n--- live ---\n%s\n--- reopened ---\n%s", reports[0], reports[2])
	}
	if reports[1] != reports[3] {
		t.Fatalf("agg output diverges across save/open:\n--- live ---\n%s\n--- reopened ---\n%s", reports[1], reports[3])
	}

	// The golden file pins the -open one-shot path (fresh process over the
	// mapped file) modulo the temp path printed in the header line.
	var oneShot bytes.Buffer
	args := []string{
		"-open", snap,
		"-from", "Orders,Store,Disp",
		"-eq", "Orders.item=Store.item",
		"-eq", "Store.location=Disp.location",
		"-orderby", "Orders.oid,Disp.dispatcher",
		"-rows", "0",
	}
	if err := run(args, strings.NewReader(""), &oneShot); err != nil {
		t.Fatal(err)
	}
	got := oneShot.String()
	if i := strings.IndexByte(got, '\n'); i >= 0 && strings.HasPrefix(got, "opened snapshot ") {
		got = got[i+1:] // drop the header line (contains the temp path)
	} else {
		t.Fatalf("missing opened-snapshot header:\n%s", got)
	}
	golden := filepath.Join("testdata", "saveopen_golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("-open output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestSaveOpenFlagsRoundTrip drives the non-interactive -save / -open flags
// including the save-only invocation (no -from) and the corrupt-file error.
func TestSaveOpenFlagsRoundTrip(t *testing.T) {
	orders, _, _ := writeTSVs(t)
	snap := filepath.Join(t.TempDir(), "orders.fdb")
	var out bytes.Buffer
	if err := run([]string{"-load", orders, "-save", snap}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "saved snapshot ") {
		t.Fatalf("save-only invocation did not report the file:\n%s", out.String())
	}
	var reopened bytes.Buffer
	args := []string{"-open", snap, "-from", "Orders", "-orderby", "Orders.oid,Orders.item", "-rows", "0"}
	if err := run(args, strings.NewReader(""), &reopened); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"o1\tMilk", "o3\tMelon"} {
		if !strings.Contains(reopened.String(), want) {
			t.Fatalf("reopened rows missing %q:\n%s", want, reopened.String())
		}
	}
	// A corrupted file must fail loudly, not open.
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.fdb")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-open", bad, "-from", "Orders"}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("corrupted snapshot opened without error")
	}
}

// TestWriteFlags drives the one-shot -insert/-delete/-upsert flags.
func TestWriteFlags(t *testing.T) {
	orders, _, _ := writeTSVs(t)
	var out bytes.Buffer
	args := []string{
		"-load", orders,
		"-insert", "Orders:o9,Bread",
		"-delete", "Orders:o2,Melon",
		"-upsert", "Orders:1:o1,Butter",
		"-from", "Orders",
		"-orderby", "Orders.oid,Orders.item",
		"-rows", "0",
	}
	if err := run(args, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"o9\tBread", "o1\tButter"} {
		if !strings.Contains(s, want) {
			t.Fatalf("written rows missing %q:\n%s", want, s)
		}
	}
	for _, gone := range []string{"o2\tMelon", "o1\tMilk", "o1\tCheese"} {
		if strings.Contains(s, gone) {
			t.Fatalf("deleted/displaced row %q still printed:\n%s", gone, s)
		}
	}
	// Malformed write flags error out.
	for name, bad := range map[string][]string{
		"insert":     {"-load", orders, "-insert", "Orders", "-from", "Orders"},
		"upsert":     {"-load", orders, "-upsert", "Orders:o1,Milk", "-from", "Orders"},
		"upsert key": {"-load", orders, "-upsert", "Orders:x:o1,Milk", "-from", "Orders"},
	} {
		if err := run(bad, strings.NewReader(""), &bytes.Buffer{}); err == nil {
			t.Errorf("%s: malformed flag accepted", name)
		}
	}
}

// TestRunErrors: the CLI surfaces clause errors instead of printing.
func TestRunErrors(t *testing.T) {
	orders, _, _ := writeTSVs(t)
	for name, args := range map[string][]string{
		"missing from":  {"-load", orders, "-orderby", "Orders.oid"},
		"bad orderattr": {"-load", orders, "-from", "Orders", "-orderby", "Orders.zzz"},
		"agg and limit": {"-load", orders, "-from", "Orders", "-agg", "count", "-limit", "3"},
	} {
		var out bytes.Buffer
		if err := run(args, strings.NewReader(""), &out); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestInteractiveRefusesSave: -save names a file written after the query,
// but -i ends in the REPL, so the combination is refused — pointing at the
// REPL's save verb — rather than silently writing nothing.
func TestInteractiveRefusesSave(t *testing.T) {
	orders, _, _ := writeTSVs(t)
	p := filepath.Join(t.TempDir(), "orders.fdb")
	var out bytes.Buffer
	err := run([]string{"-i", "-save", p, "-load", orders}, strings.NewReader("quit\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "save verb") {
		t.Fatalf("-i -save: err = %v, want a refusal naming the REPL's save verb", err)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("-i -save wrote %s (stat: %v)", p, err)
	}
}
