package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/wire"
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

// runLines runs lines as command-line arguments, printing every row, and
// returns what the run printed.
func runLines(lines ...string) (string, error) {
	var out bytes.Buffer
	err := run(append([]string{"-rows", "0"}, lines...), strings.NewReader(""), &out)
	return out.String(), err
}

// TestOrderedQueryGolden locks the ordered-query output down: the same
// ORDER BY/LIMIT line must print byte-identical output on every run
// (stable plan, stable streaming order, stable rendering). Regenerate with
// `go test ./cmd/fdb -run Golden -update`.
func TestOrderedQueryGolden(t *testing.T) {
	orders, store, disp := writeTSVs(t)
	lines := []string{
		"load " + orders, "load " + store, "load " + disp,
		"query from Orders,Store,Disp eq Orders.item=Store.item eq Store.location=Disp.location " +
			"orderby Orders.item,-Disp.dispatcher offset 1 limit 6 distinct",
	}
	out, err := runLines(lines...)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "ordered_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("ordered output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, out, want)
	}
	// Stability across runs, not just against the checked-in file.
	if again, err := runLines(lines...); err != nil || again != out {
		t.Fatalf("two identical invocations printed different output (err %v)", err)
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
// and from an open line in a fresh run must be identical — the
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

	// The golden file pins the open-then-query lines of a fresh run over
	// the mapped file, modulo the temp path printed in the open line.
	got, err := runLines("open "+snap, query)
	if err != nil {
		t.Fatal(err)
	}
	if i := strings.IndexByte(got, '\n'); i >= 0 && strings.HasPrefix(got, "  opened snapshot ") {
		got = got[i+1:] // drop the open line (contains the temp path)
	} else {
		t.Fatalf("missing opened-snapshot line:\n%s", got)
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
		t.Fatalf("reopened output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestScriptSaveOpenRoundTrip: a run that loads, queries and saves, then a
// new run that opens the file, queries it and explains the query, which
// serves the arena the file carried; a corrupted file fails the open line.
func TestScriptSaveOpenRoundTrip(t *testing.T) {
	orders, _, _ := writeTSVs(t)
	snap := filepath.Join(t.TempDir(), "orders.fdb")
	query := "from Orders orderby Orders.oid,Orders.item"
	out, err := runLines("load "+orders, "query "+query, "save "+snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "saved snapshot ") {
		t.Fatalf("save line did not report the file:\n%s", out)
	}
	reopened, err := runLines("open "+snap, "query "+query, "prepare q "+query, "explain q")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"o1\tMilk", "o3\tMelon", "order: streams as planned", "adopted: yes"} {
		if !strings.Contains(reopened, want) {
			t.Fatalf("reopened rows missing %q:\n%s", want, reopened)
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
	if _, err := runLines("open "+bad, "query from Orders"); err == nil {
		t.Fatal("corrupted snapshot opened without error")
	}
}

// TestScriptWrites drives the insert/delete/upsert lines ahead of a query,
// and refuses malformed write lines.
func TestScriptWrites(t *testing.T) {
	orders, _, _ := writeTSVs(t)
	out, err := runLines("load "+orders,
		"insert Orders o9 Bread",
		"delete Orders o2 Melon",
		"upsert Orders 1 o1 Butter",
		"query from Orders orderby Orders.oid,Orders.item")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"o9\tBread", "o1\tButter"} {
		if !strings.Contains(out, want) {
			t.Fatalf("written rows missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"o2\tMelon", "o1\tMilk", "o1\tCheese"} {
		if strings.Contains(out, gone) {
			t.Fatalf("deleted/displaced row %q still printed:\n%s", gone, out)
		}
	}
	for name, bad := range map[string]string{
		"insert":      "insert Orders",
		"insert rel":  "insert Nope o1 Milk",
		"delete":      "delete Orders",
		"upsert":      "upsert Orders o1 Milk",
		"upsert key":  "upsert Orders x o1 Milk",
		"upsert size": "upsert Orders 1 o1",
	} {
		if _, err := runLines("load "+orders, bad); err == nil {
			t.Errorf("%s: malformed line %q accepted", name, bad)
		}
	}
}

// TestRunErrors: a line the engine or the grammar refuses fails the run,
// and the lines after it do not run.
func TestRunErrors(t *testing.T) {
	orders, _, _ := writeTSVs(t)
	for name, line := range map[string]string{
		"missing from":  "query orderby Orders.oid",
		"unknown rel":   "query from Nope",
		"bad orderattr": "query from Orders orderby Orders.zzz",
		"agg and limit": "query from Orders agg count limit 3",
		"bad where":     "query from Orders where Orders.oid",
		"unknown word":  "query from Orders select Orders.oid",
		"unknown verb":  "select from Orders",
		"unknown stmt":  "exec q",
		"explain stmt":  "explain q",
		"bad binding":   "prepare q from Orders where Orders.oid=$n\nexec q n",
		"unknown snap":  "squery s from Orders",
		"missing path":  "load",
	} {
		lines := append([]string{"load " + orders}, strings.Split(line, "\n")...)
		if _, err := runLines(lines...); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	p := filepath.Join(t.TempDir(), "orders.fdb")
	if _, err := runLines("load "+orders, "query from Nope", "save "+p); err == nil {
		t.Fatal("a failing line did not fail the run")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("the line after a failing one ran: %s exists (stat: %v)", p, err)
	}
}

// TestQueryTextMatchesClauses: every query line of this package's tests,
// the package doc and the README prepares, through wire.ParseSpec and
// Spec.Clauses, to the very statement its hand-written clause list prepares
// — the plan cache keys by canonical fingerprint, so one statement means
// one query. Distinct lines must give distinct statements.
func TestQueryTextMatchesClauses(t *testing.T) {
	db := fdb.New()
	db.MustCreate("Orders", "oid", "item")
	db.MustCreate("Store", "location", "item")
	db.MustCreate("Stock", "location", "item")
	db.MustCreate("Disp", "dispatcher", "location")
	grocery := []fdb.Clause{fdb.From("Orders", "Store", "Disp"),
		fdb.Eq("Orders.item", "Store.item"), fdb.Eq("Store.location", "Disp.location")}
	with := func(cs ...fdb.Clause) []fdb.Clause { return append(append([]fdb.Clause{}, grocery...), cs...) }
	s := &session{db: db}
	seen := map[*fdb.Stmt]string{}
	for _, c := range []struct {
		text    string
		clauses []fdb.Clause
	}{
		{"from Orders", []fdb.Clause{fdb.From("Orders")}},
		{"from Orders orderby -Orders.item limit 2",
			[]fdb.Clause{fdb.From("Orders"), fdb.OrderBy(fdb.Desc("Orders.item")), fdb.Limit(2)}},
		{"from Orders orderby -Orders.oid limit 3",
			[]fdb.Clause{fdb.From("Orders"), fdb.OrderBy(fdb.Desc("Orders.oid")), fdb.Limit(3)}},
		{"from Orders orderby Orders.oid,Orders.item",
			[]fdb.Clause{fdb.From("Orders"), fdb.OrderBy("Orders.oid", "Orders.item")}},
		{"from Orders orderby Orders.oid,-Orders.item offset 1",
			[]fdb.Clause{fdb.From("Orders"), fdb.OrderBy(fdb.Asc("Orders.oid"), fdb.Desc("Orders.item")), fdb.Offset(1)}},
		{"from Orders where Orders.item=$item",
			[]fdb.Clause{fdb.From("Orders"), fdb.Cmp("Orders.item", fdb.EQ, fdb.Param("item"))}},
		{"from Orders,Store eq Orders.item=Store.item project Store.location distinct orderby Store.location",
			[]fdb.Clause{fdb.From("Orders", "Store"), fdb.Eq("Orders.item", "Store.item"),
				fdb.Project("Store.location"), fdb.Distinct(), fdb.OrderBy("Store.location")}},
		{"from Orders,Store eq Orders.item=Store.item orderby -Orders.oid limit 5",
			[]fdb.Clause{fdb.From("Orders", "Store"), fdb.Eq("Orders.item", "Store.item"),
				fdb.OrderBy(fdb.Desc("Orders.oid")), fdb.Limit(5)}},
		{"from Orders,Store eq Orders.item=Store.item groupby Store.location agg count agg distinct(Orders.item)",
			[]fdb.Clause{fdb.From("Orders", "Store"), fdb.Eq("Orders.item", "Store.item"),
				fdb.GroupBy("Store.location"), fdb.Agg(fdb.Count, ""), fdb.Agg(fdb.CountDistinct, "Orders.item")}},
		{"from Orders,Store,Disp eq Orders.item=Store.item eq Store.location=Disp.location orderby Orders.oid,Disp.dispatcher",
			with(fdb.OrderBy("Orders.oid", "Disp.dispatcher"))},
		{"from Orders,Store,Disp eq Orders.item=Store.item eq Store.location=Disp.location orderby Orders.item,-Disp.dispatcher offset 1 limit 6 distinct",
			with(fdb.OrderBy(fdb.Asc("Orders.item"), fdb.Desc("Disp.dispatcher")), fdb.Offset(1), fdb.Limit(6), fdb.Distinct())},
		{"from Orders,Stock eq Orders.item=Stock.item groupby Stock.location agg count agg sum(Orders.oid)",
			[]fdb.Clause{fdb.From("Orders", "Stock"), fdb.Eq("Orders.item", "Stock.item"),
				fdb.GroupBy("Stock.location"), fdb.Agg(fdb.Count, ""), fdb.Agg(fdb.Sum, "Orders.oid")}},
		{"from Orders,Stock eq Orders.item=Stock.item where Orders.oid<$n groupby Stock.location agg count",
			[]fdb.Clause{fdb.From("Orders", "Stock"), fdb.Eq("Orders.item", "Stock.item"),
				fdb.Cmp("Orders.oid", fdb.LT, fdb.Param("n")), fdb.GroupBy("Stock.location"), fdb.Agg(fdb.Count, "")}},
		{"from Orders,Store eq Orders.item=Store.item where Orders.oid<=$n",
			[]fdb.Clause{fdb.From("Orders", "Store"), fdb.Eq("Orders.item", "Store.item"),
				fdb.Cmp("Orders.oid", fdb.LE, fdb.Param("n"))}},
		{"from Orders where Orders.oid<=3 where Orders.item!=Milk",
			[]fdb.Clause{fdb.From("Orders"), fdb.Cmp("Orders.oid", fdb.LE, int64(3)), fdb.Cmp("Orders.item", fdb.NE, "Milk")}},
		{`from Orders where Orders.item="Ice Cream"`,
			[]fdb.Clause{fdb.From("Orders"), fdb.Cmp("Orders.item", fdb.EQ, "Ice Cream")}},
		{`from Orders where Orders.item="42" where Orders.oid>="$n"`,
			[]fdb.Clause{fdb.From("Orders"), fdb.Cmp("Orders.item", fdb.EQ, "42"), fdb.Cmp("Orders.oid", fdb.GE, "$n")}},
		{"from Orders where Orders.item=a<b where Orders.oid<=x=y",
			[]fdb.Clause{fdb.From("Orders"), fdb.Cmp("Orders.item", fdb.EQ, "a<b"), fdb.Cmp("Orders.oid", fdb.LE, "x=y")}},
	} {
		want, err := db.Prepare(c.clauses...)
		if err != nil {
			t.Fatalf("%s: clauses: %v", c.text, err)
		}
		words, err := wire.SplitLine(c.text)
		if err != nil {
			t.Fatalf("%s: split: %v", c.text, err)
		}
		got, err := s.prepare(words)
		if err != nil {
			t.Fatalf("%s: text: %v", c.text, err)
		}
		if got != want {
			t.Errorf("%s: the text and the clause list prepare different statements", c.text)
		}
		if prev, dup := seen[want]; dup {
			t.Errorf("%q and %q prepare one statement", prev, c.text)
		}
		seen[want] = c.text
	}
}

// TestScriptQuoting: a double-quoted word keeps its spaces, in a path, a
// where value, a written value and an exec binding, and is always a
// string; a quote left open fails the line.
func TestScriptQuoting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "my dir")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	tsv := filepath.Join(dir, "my orders.tsv")
	if err := os.WriteFile(tsv, []byte("Orders\toid\titem\no1\tMilk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "my snap.fdb")
	out, err := runLines(`load "`+tsv+`"`, `insert Orders o2 "Ice Cream"`, `insert Orders o3 "42"`,
		`query from Orders where Orders.item="Ice Cream"`,
		`prepare p from Orders where Orders.item=$item`, `exec p item="42"`, `save "`+snap+`"`)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"Orders.oid\tOrders.item\no2\tIce Cream\n", "Orders.oid\tOrders.item\no3\t42\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if out, err := runLines(`open "`+snap+`"`, `query from Orders where Orders.item!="Ice Cream" orderby Orders.oid`); err != nil ||
		!strings.Contains(out, "o1\tMilk\no3\t42\n") {
		t.Errorf("reopened by a quoted path: %v\n%s", err, out)
	}
	for _, line := range []string{`load "` + tsv, `query from Orders where Orders.item="Ice`, `insert Orders o4 "a"b`} {
		if _, err := runLines(line); err == nil {
			t.Errorf("%q accepted", line)
		}
	}
	// Orders.item is a string attribute: an unquoted number is an integer,
	// refused with a hint to quote it, as a written value, a where constant
	// or an exec binding. An equality with an integer attribute is refused
	// without the hint: quoting cannot mend it.
	nums := filepath.Join(dir, "nums.tsv")
	if err := os.WriteFile(nums, []byte("Nums\tn\n5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		line string
		hint bool
	}{
		{`insert Orders o4 42`, true},
		{`exec p item=42`, true},
		{`query from Orders where Orders.item=42`, true},
		{`query from Orders,Nums eq Orders.item=Nums.n`, false},
	} {
		_, err := runLines(`load "`+tsv+`"`, `load "`+nums+`"`, `prepare p from Orders where Orders.item=$item`, c.line)
		var kerr *fdb.KindError
		if !errors.As(err, &kerr) {
			t.Errorf("%q on a string attribute: err = %v, want a KindError", c.line, err)
		} else if hint := strings.Contains(err.Error(), `quote it, as in "42"`); hint != c.hint {
			t.Errorf("%q: err = %v, hint to quote it %v, want %v", c.line, err, hint, c.hint)
		}
	}
}
