// Command fdb runs select-project-join queries over tab-separated relation
// files and prints the factorised result, its f-tree, and size statistics.
//
//	fdb [-i] [-rows n] [line ...]
//
// Every task is a line of one small command language, the REPL's: each
// positional argument is one line, run in order with no prompt, and the
// first line that fails ends the run with a non-zero exit. -i then reads
// further lines from stdin interactively; with no lines and no -i, fdb runs
// a demo on the paper's grocery database (Figure 1).
//
//	fdb 'load orders.tsv' 'load store.tsv' \
//	    'query from Orders,Store eq Orders.item=Store.item orderby -Orders.oid limit 5'
//	fdb 'load orders.tsv' 'insert Orders o9 Milk' 'save grocery.fdb'
//	fdb 'open grocery.fdb' 'prepare q from Orders where Orders.item=$item' 'exec q item=Milk'
//	fdb -i 'open grocery.fdb'
//
// A line splits into words at spaces outside double quotes (wire.SplitLine).
// A quoted word is read as a Go string literal and is always a string — a
// where value, an insert value, an exec binding or a path:
//
//	fdb 'load "my orders.tsv"' 'query from Orders where Orders.item="Ice Cream"'
//
// Query text is parsed by wire.ParseSpec into the server's wire.Spec and
// compiled by Spec.Clauses, so the command line, the REPL and the wire
// protocol read a query one way. Every verb that runs a statement — exec,
// query, squery — prepares it through the plan cache (squery then binds it
// to the snapshot) and prints it through execAndReport. replHelp lists the
// verbs and the query grammar.
//
// A relation file's first line is "Name<TAB>attr1<TAB>attr2…"; every other
// line is one tuple. A column whose every field is an integer is an integer
// column; any other column is a string column, dictionary-encoded. An
// attribute keeps the kind its relation's first write gave it, so an
// insert of the other kind is refused. save writes a zero-copy snapshot
// file that open maps back in, skipping the TSV parse and encode; the
// encodings of live statements ride along, so the reopened database serves
// them without a build.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/relation"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h already printed usage; that is success
		}
		fmt.Fprintln(os.Stderr, "fdb:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it runs every positional argument as a
// line, then the REPL with -i, and writes every report to out.
func run(argv []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("fdb", flag.ContinueOnError)
	rows := fs.Int("rows", 10, "result rows to print (0: all)")
	interactive := fs.Bool("i", false, "read more lines from stdin after the argument lines (the REPL)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: fdb [-i] [-rows n] [line ...]  (each line is a command; 'fdb help' lists them)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() == 0 && !*interactive {
		return demo(out)
	}
	s := &session{db: fdb.New(), stmts: map[string]*fdb.Stmt{}, snaps: map[string]*fdb.Snapshot{}, rows: *rows, out: out}
	for _, line := range fs.Args() {
		quit, err := s.do(line)
		if err != nil {
			return fmt.Errorf("%q: %w", line, err)
		}
		if quit {
			return nil
		}
	}
	if *interactive {
		s.repl(in)
	}
	return nil
}

// parseConst parses a binding or tuple value: a word in double quotes is a
// string (wire.Unquote), any other word an int64 or a literal string (no
// placeholder interpretation — a value may legitimately start with '$').
func parseConst(word string) (interface{}, error) {
	if s, quoted, err := wire.Unquote(word); err != nil || quoted {
		return s, err
	}
	if n, err := strconv.ParseInt(word, 10, 64); err == nil {
		return n, nil
	}
	return word, nil
}

// quoteHint adds a hint to a refusal of an unquoted number, which parseConst
// and wire.ParseSpec read as an integer, for a string attribute: a written
// value, a where constant or an exec binding. An equality between two
// attributes gets none.
func quoteHint(err error) error {
	var kerr *fdb.KindError
	if errors.As(err, &kerr) && !kerr.Eq && kerr.Want == relation.KindStr && kerr.Got == relation.KindInt {
		return fmt.Errorf(`%w (an unquoted number is an integer: quote it, as in "42", for a string)`, err)
	}
	return err
}

// parseArgs turns name=value tokens into Exec arguments.
func parseArgs(tokens []string) ([]fdb.NamedArg, error) {
	var args []fdb.NamedArg
	for _, p := range tokens {
		name, val, ok := strings.Cut(p, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad parameter binding %q (want name=value)", p)
		}
		v, err := parseConst(val)
		if err != nil {
			return nil, err
		}
		args = append(args, fdb.Arg(name, v))
	}
	return args, nil
}

// execAndReport runs a compiled statement and prints its result: one row per
// group for a statement that aggregates, the factorisation and its rows
// otherwise. Every verb that runs a statement — exec, query, squery — ends
// here.
func execAndReport(out io.Writer, stmt *fdb.Stmt, args []fdb.NamedArg, rows int) error {
	if len(stmt.Aggregates()) > 0 {
		ar, err := stmt.ExecAgg(args...)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "groups: %d\n", ar.Len())
		fmt.Fprint(out, ar.Table(rows))
		return nil
	}
	res, err := stmt.Exec(args...)
	if err != nil {
		return err
	}
	report(out, res, rows)
	return nil
}

func report(out io.Writer, res *fdb.Result, rows int) {
	fmt.Fprintln(out, "f-tree:")
	fmt.Fprint(out, res.FTree())
	fmt.Fprintf(out, "factorised size: %d singletons\n", res.Size())
	fmt.Fprintf(out, "tuples:          %d (flat size %d data elements)\n", res.Count(), res.FlatSize())
	if res.OrderStreamed() {
		fmt.Fprintln(out, "order:           streamed off the f-tree (no sort)")
	}
	fmt.Fprintln(out, "factorisation:")
	fmt.Fprintln(out, " ", res)
	fmt.Fprintln(out, "rows:")
	fmt.Fprint(out, res.Table(rows))
}

// ------------------------------------------------------------------- lines

const replHelp = `commands:
  load <path>                      load a TSV relation file
  rels                             list relations
  prepare <name> <query>           compile a statement through the plan cache ($x in where = parameter)
  exec <name> [k=v ...]            run a prepared statement
  explain <name>                   show a prepared statement's plan: f-tree, s(T),
                                   search, order, selections, data holder
  query <query>                    run an ad-hoc query (through the plan cache)
  insert <Rel> v1 v2 ...           add a tuple (set semantics; visible to the next query)
  delete <Rel> v1 v2 ...           remove the exact tuple (absent: no-op)
  upsert <Rel> <k> v1 v2 ...       insert, first removing live tuples matching the first k columns
  snapshot <name>                  pin a consistent read view of the database
  squery <name> <query>            run a query bound to a pinned snapshot (same plan as query)
  release <name>                   close a snapshot (its queries then fail)
  compact <Rel>                    fold the relation's delta chain into a fresh base
  save <path>                      write the database to a zero-copy snapshot file
  open <path>                      replace the session database with a snapshot file
                                   (memory-mapped; prepared statements and pinned
                                   snapshots of the old database are discarded)
  stats                            plan cache statistics
  help | quit
query syntax:
  from R1,R2 [eq A=B ...] [where ATTR(=|!=|<|<=|>|>=)VAL ...] [project A,B]
  [orderby A,-B] [limit N] [offset N] [distinct]
  [groupby A,B] [agg count|sum(A)|min(A)|max(A)|distinct(A) ...]
orderby sorts the rows (leading '-': descending); with a tree-compatible key
prefix the rows stream in order off the factorised result and limit N is
top-k. aggregation queries (agg, optionally groupby) print one row per
group, computed in a single pass over the factorised result.
a word splits at spaces outside double quotes; a quoted value (Go syntax)
is always a string: where R.item="Ice Cream", insert R 7 "42",
exec q item="a b", load "my file.tsv".
on the command line each argument is one line, e.g.
  fdb 'load orders.tsv' 'query from Orders orderby -Orders.oid limit 3'`

// session is what the lines of one run share: the database, the prepared
// statements and pinned snapshots by name, and the printed row cap.
type session struct {
	db    *fdb.DB
	stmts map[string]*fdb.Stmt
	snaps map[string]*fdb.Snapshot
	rows  int
	out   io.Writer
}

// repl reads lines from in until EOF or quit, reporting a failing line and
// going on.
func (s *session) repl(in io.Reader) {
	sc := bufio.NewScanner(in)
	fmt.Fprintln(s.out, "fdb interactive — 'help' for commands")
	for {
		fmt.Fprint(s.out, "fdb> ")
		if !sc.Scan() {
			fmt.Fprintln(s.out)
			if err := sc.Err(); err != nil {
				fmt.Fprintln(s.out, "error reading input:", err)
			}
			return
		}
		quit, err := s.do(sc.Text())
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
		if quit {
			return
		}
	}
}

// do runs one line, the dispatch shared by the argument lines and the REPL;
// quit reports a quit or exit line.
func (s *session) do(line string) (quit bool, err error) {
	fields, err := wire.SplitLine(line)
	if err != nil || len(fields) == 0 {
		return false, err
	}
	cmd, rest := fields[0], fields[1:]
	switch cmd {
	case "quit", "exit":
		return true, nil
	case "help":
		fmt.Fprintln(s.out, replHelp)
	case "load", "save", "open":
		err = s.file(cmd, rest)
	case "rels":
		for _, name := range s.db.Relations() {
			r, _ := s.db.Relation(name)
			fmt.Fprintf(s.out, "  %s%v: %d tuples\n", name, r.Schema, r.Cardinality())
		}
	case "prepare":
		err = quoteHint(s.prepareNamed(rest))
	case "exec":
		err = quoteHint(s.exec(rest))
	case "explain":
		err = s.explain(rest)
	case "query":
		err = quoteHint(s.query(rest))
	case "insert", "delete", "upsert":
		err = quoteHint(s.write(cmd, rest))
	case "snapshot":
		err = s.snapshot(rest)
	case "squery":
		err = quoteHint(s.snapQuery(rest))
	case "release":
		err = s.release(rest)
	case "compact":
		if len(rest) != 1 {
			err = fmt.Errorf("usage: compact <Rel>")
		} else if err = s.db.Compact(rest[0]); err == nil {
			fmt.Fprintf(s.out, "  compacted %s (version %d)\n", rest[0], s.db.Version())
		}
	case "stats":
		c := s.db.CacheStats()
		fmt.Fprintf(s.out, "  plan cache: %d entries, %d hits, %d misses\n", c.Entries, c.Hits, c.Misses)
	default:
		err = fmt.Errorf("unknown command %q ('help' lists commands)", cmd)
	}
	return false, err
}

// prepare compiles query text the way the server compiles a wire request:
// wire.ParseSpec, Spec.Clauses, then DB.Prepare through the plan cache,
// which keeps the statement — and so its data holder — alive, so a later
// save carries its encoding along.
func (s *session) prepare(tokens []string) (*fdb.Stmt, error) {
	sp, err := wire.ParseSpec(tokens)
	if err != nil {
		return nil, err
	}
	clauses, err := sp.Clauses()
	if err != nil {
		return nil, err
	}
	return s.db.Prepare(clauses...)
}

func (s *session) prepareNamed(rest []string) error {
	if len(rest) < 2 {
		return fmt.Errorf("usage: prepare <name> <query>")
	}
	stmt, err := s.prepare(rest[1:])
	if err != nil {
		return err
	}
	s.stmts[rest[0]] = stmt
	if aggs := stmt.Aggregates(); len(aggs) > 0 {
		fmt.Fprintf(s.out, "  %s compiled: s(T)=%.1f, params %v, aggregates %v\n", rest[0], stmt.Explain().Cost, stmt.Params(), aggs)
	} else {
		fmt.Fprintf(s.out, "  %s compiled: s(T)=%.1f, params %v\n", rest[0], stmt.Explain().Cost, stmt.Params())
	}
	return nil
}

func (s *session) exec(rest []string) error {
	if len(rest) < 1 {
		return fmt.Errorf("usage: exec <name> [k=v ...]")
	}
	stmt, ok := s.stmts[rest[0]]
	if !ok {
		return fmt.Errorf("no prepared statement %q", rest[0])
	}
	args, err := parseArgs(rest[1:])
	if err != nil {
		return err
	}
	return execAndReport(s.out, stmt, args, s.rows)
}

// explain prints a prepared statement's Explain rendering: its f-tree and
// cost, how the planner chose them, whether its ORDER BY streams, its
// inputs' selections and path orders, and its data holder.
func (s *session) explain(rest []string) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: explain <name>")
	}
	stmt, ok := s.stmts[rest[0]]
	if !ok {
		return fmt.Errorf("no prepared statement %q", rest[0])
	}
	for _, line := range strings.Split(strings.TrimSuffix(stmt.Explain().String(), "\n"), "\n") {
		fmt.Fprintln(s.out, "  "+line)
	}
	return nil
}

func (s *session) query(rest []string) error {
	stmt, err := s.prepare(rest)
	if err != nil {
		return err
	}
	return execAndReport(s.out, stmt, nil, s.rows)
}

// write handles the insert/delete/upsert verbs. Writes commit immediately:
// the next query (prepared or ad-hoc, cached or fresh) sees them, while
// pinned snapshots keep their view.
func (s *session) write(verb string, rest []string) error {
	first, usage := 1, "<Rel> v1 v2 ..."
	if verb == "upsert" {
		first, usage = 2, "<Rel> <keycols> v1 v2 ..."
	}
	if len(rest) <= first {
		return fmt.Errorf("usage: %s %s", verb, usage)
	}
	var err error
	vals := make([]interface{}, len(rest)-first)
	for i, w := range rest[first:] {
		if vals[i], err = parseConst(w); err != nil {
			return err
		}
	}
	switch verb {
	case "insert":
		err = s.db.Insert(rest[0], vals...)
	case "delete":
		err = s.db.Delete(rest[0], vals...)
	case "upsert":
		key, kerr := strconv.Atoi(rest[1])
		if kerr != nil {
			return fmt.Errorf("bad key column count %q", rest[1])
		}
		err = s.db.Upsert(rest[0], key, vals...)
	}
	if err != nil {
		return err
	}
	r, _ := s.db.Relation(rest[0])
	fmt.Fprintf(s.out, "  %s %s: now %d tuples (version %d)\n", verb, rest[0], r.Cardinality(), s.db.Version())
	return nil
}

func (s *session) snapshot(rest []string) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: snapshot <name>")
	}
	if old, ok := s.snaps[rest[0]]; ok {
		old.Close()
	}
	s.snaps[rest[0]] = s.db.Snapshot()
	fmt.Fprintf(s.out, "  snapshot %s pinned at version %d\n", rest[0], s.snaps[rest[0]].Version())
	return nil
}

func (s *session) snapQuery(rest []string) error {
	if len(rest) < 2 {
		return fmt.Errorf("usage: squery <snapshot> <query>")
	}
	snap, ok := s.snaps[rest[0]]
	if !ok {
		return fmt.Errorf("no snapshot %q", rest[0])
	}
	stmt, err := s.prepare(rest[1:])
	if err != nil {
		return err
	}
	if stmt, err = snap.Bind(stmt); err != nil {
		return err
	}
	return execAndReport(s.out, stmt, nil, s.rows)
}

func (s *session) release(rest []string) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: release <name>")
	}
	snap, ok := s.snaps[rest[0]]
	if !ok {
		return fmt.Errorf("no snapshot %q", rest[0])
	}
	// The name stays bound to the closed snapshot: a later squery surfaces
	// the engine's closed-snapshot error instead of a lookup failure.
	snap.Close()
	fmt.Fprintf(s.out, "  snapshot %s released\n", rest[0])
	return nil
}

// file runs the verbs that take one path, quoted when it holds a space:
// load reads a TSV relation file; save writes the session database to a
// snapshot file, and the encodings of statements still alive ride along,
// one per data holder — prepared ones, and those the query verb left in the
// plan cache — so a later open serves them without a build; open replaces
// the session database with a snapshot file, discarding the prepared
// statements and pinned snapshots, views of a database the session no
// longer serves.
func (s *session) file(verb string, rest []string) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: %s <path>", verb)
	}
	path, _, err := wire.Unquote(rest[0])
	if err != nil {
		return err
	}
	switch verb {
	case "load":
		name, err := s.db.LoadTSV(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "  loaded %s\n", name)
	case "save":
		if err := s.db.SaveSnapshot(path); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "  saved snapshot %s (version %d)\n", path, s.db.Version())
	case "open":
		db, err := fdb.OpenSnapshotFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "  opened snapshot %s (version %d, %d relations)\n", path, db.Version(), len(db.Relations()))
		s.db = db
		s.stmts = map[string]*fdb.Stmt{}
		for _, snap := range s.snaps {
			snap.Close()
		}
		s.snaps = map[string]*fdb.Snapshot{}
	}
	return nil
}

// demo runs Q1 of the paper on the grocery database of Figure 1, then shows
// the prepared-statement flow and an ordered top-k retrieval.
func demo(out io.Writer) error {
	db := fdb.New()
	db.MustCreate("Orders", "oid", "item")
	for _, r := range [][2]string{{"01", "Milk"}, {"01", "Cheese"}, {"02", "Melon"}, {"03", "Cheese"}, {"03", "Melon"}} {
		db.MustInsert("Orders", r[0], r[1])
	}
	db.MustCreate("Store", "location", "item")
	for _, r := range [][2]string{{"Istanbul", "Milk"}, {"Istanbul", "Cheese"}, {"Istanbul", "Melon"},
		{"Izmir", "Milk"}, {"Antalya", "Milk"}, {"Antalya", "Cheese"}} {
		db.MustInsert("Store", r[0], r[1])
	}
	db.MustCreate("Disp", "dispatcher", "location")
	for _, r := range [][2]string{{"Adnan", "Istanbul"}, {"Adnan", "Izmir"}, {"Yasemin", "Istanbul"}, {"Volkan", "Antalya"}} {
		db.MustInsert("Disp", r[0], r[1])
	}
	fmt.Fprintln(out, "Q1 = Orders ⋈item Store ⋈location Disp (Example 1 of the paper)")
	res, err := db.Query(
		fdb.From("Orders", "Store", "Disp"),
		fdb.Eq("Orders.item", "Store.item"),
		fdb.Eq("Store.location", "Disp.location"))
	if err != nil {
		return err
	}
	report(out, res, 0)

	fmt.Fprintln(out, "\nprepared: same join with Orders.item = $item, compiled once")
	stmt, err := db.Prepare(
		fdb.From("Orders", "Store", "Disp"),
		fdb.Eq("Orders.item", "Store.item"),
		fdb.Eq("Store.location", "Disp.location"),
		fdb.Cmp("Orders.item", fdb.EQ, fdb.Param("item")))
	if err != nil {
		return err
	}
	for _, item := range []string{"Milk", "Cheese"} {
		r, err := stmt.Exec(fdb.Arg("item", item))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  item=%s: %d tuples, %d singletons\n", item, r.Count(), r.Size())
	}

	fmt.Fprintln(out, "\nordered: the join sorted by item (decoded order), first 3 rows streamed")
	ost, err := db.Prepare(
		fdb.From("Orders", "Store", "Disp"),
		fdb.Eq("Orders.item", "Store.item"),
		fdb.Eq("Store.location", "Disp.location"),
		fdb.OrderBy("Orders.item"),
		fdb.Limit(3))
	if err != nil {
		return err
	}
	ores, err := ost.Exec()
	if err != nil {
		return err
	}
	fmt.Fprint(out, ores.Table(0))

	fmt.Fprintln(out, "\naggregated: orders and distinct items per location, one pass over the f-rep")
	ar, err := db.QueryAgg(
		fdb.From("Orders", "Store", "Disp"),
		fdb.Eq("Orders.item", "Store.item"),
		fdb.Eq("Store.location", "Disp.location"),
		fdb.GroupBy("Store.location"),
		fdb.Agg(fdb.Count, ""),
		fdb.Agg(fdb.CountDistinct, "Orders.item"))
	if err != nil {
		return err
	}
	fmt.Fprint(out, ar.Table(0))
	return nil
}
