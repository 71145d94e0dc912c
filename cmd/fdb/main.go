// Command fdb runs select-project-join queries over tab-separated relation
// files and prints the factorised result, its f-tree, and size statistics.
// Queries are compiled once with the prepared-statement API and executed
// with bound parameters.
//
//	fdb -load orders.tsv -load store.tsv -load disp.tsv \
//	    -from Orders,Store,Disp \
//	    -eq Orders.item=Store.item -eq Store.location=Disp.location \
//	    [-where 'Orders.oid<=3'] [-where 'Orders.item=$item' -param item=Milk] \
//	    [-project Orders.oid,Disp.dispatcher] [-rows 20] \
//	    [-orderby Disp.dispatcher,-Orders.oid] [-limit 5] [-offset 2] [-distinct] \
//	    [-groupby Store.location -agg count -agg 'sum(Orders.oid)']
//
// The query flags and the REPL's query verbs are one grammar: the flags are
// turned into the REPL's token list (from … eq … where … project … orderby …
// distinct offset … limit … groupby … agg …) and parsed by the same
// parseQuery, and every surface that runs a statement — the flags, exec,
// query, squery — prepares it through the plan cache (squery then binds it
// to the snapshot) and ends in the same execAndReport.
//
// With -agg (and optionally -groupby), the query aggregates in one pass
// over the factorised result and prints one row per group.
//
// -orderby sorts the result by the named attributes (a leading '-' means
// descending); when the key prefix matches the compiled f-tree, the rows
// stream in order straight off the factorised representation and -limit
// short-circuits after n tuples. -distinct makes the set semantics explicit.
//
// A -where value of the form $name compiles to a statement parameter bound
// by a matching -param name=value flag.
//
// -insert Rel:v1,v2 / -delete Rel:v1,v2 / -upsert Rel:k:v1,v2 mutate the
// loaded relations before the query runs (upsert replaces live tuples
// matching the first k columns).
//
// -save path writes the database to a zero-copy snapshot file after the
// loads, writes and query run (the query's encoding rides along under its
// data holder's key, so the reopened file serves any statement over that
// data without a build); with -i, use the REPL's save verb instead, as -save
// is refused there. -open path starts from such a file instead of an
// empty database — it is memory-mapped, so opening skips the TSV parse and
// encode entirely:
//
//	fdb -load orders.tsv -load store.tsv -save grocery.fdb
//	fdb -open grocery.fdb -from Orders,Store -eq Orders.item=Store.item
//
// With -i, fdb starts an interactive REPL over the loaded relations:
//
//	fdb> prepare q1 from Orders,Store eq Orders.item=Store.item where Orders.oid<=$n
//	fdb> exec q1 n=3
//	fdb> query from Orders orderby -Orders.item limit 3
//	fdb> insert Orders o9 Milk
//	fdb> snapshot s1
//	fdb> squery s1 from Orders
//	fdb> release s1
//	fdb> save grocery.fdb
//	fdb> open grocery.fdb
//	fdb> stats
//
// A relation file's first line is "Name<TAB>attr1<TAB>attr2…"; every other
// line is one tuple; integer fields are stored as numbers, anything else is
// dictionary-encoded. Run without flags for a demo on the paper's grocery
// database (Figure 1).
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
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h already printed usage; that is success
		}
		fmt.Fprintln(os.Stderr, "fdb:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses argv, loads the relations, and
// writes every report to out.
func run(argv []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("fdb", flag.ContinueOnError)
	var loads, eqs, wheres, params, aggs multiFlag
	fs.Var(&loads, "load", "relation file to load (repeatable)")
	from := fs.String("from", "", "comma-separated relations to join")
	fs.Var(&eqs, "eq", "equality A=B over qualified attributes (repeatable)")
	fs.Var(&wheres, "where", "selection attr(=|!=|<|<=|>|>=)value; value $name binds a parameter (repeatable)")
	fs.Var(&params, "param", "parameter binding name=value for $name placeholders (repeatable)")
	project := fs.String("project", "", "comma-separated attributes to keep")
	fs.Var(&aggs, "agg", "aggregate count | sum(A) | min(A) | max(A) | distinct(A) (repeatable)")
	groupBy := fs.String("groupby", "", "comma-separated attributes to group the aggregates by")
	orderBy := fs.String("orderby", "", "comma-separated sort keys; prefix an attribute with '-' for descending")
	limit := fs.Int("limit", -1, "cap the result at n tuples (top-k with -orderby); -1: no limit")
	offset := fs.Int("offset", 0, "skip the first n tuples of the (ordered) result")
	distinct := fs.Bool("distinct", false, "deduplicate the result on the factorised form (explicit set semantics)")
	rows := fs.Int("rows", 10, "result rows to print (0: all)")
	interactive := fs.Bool("i", false, "start an interactive REPL after loading")
	openPath := fs.String("open", "", "open a snapshot file (memory-mapped, zero-copy) instead of starting empty")
	savePath := fs.String("save", "", "write the database to this snapshot file after loads, writes and the query")
	var inserts, deletes, upserts multiFlag
	fs.Var(&inserts, "insert", "insert a tuple Rel:v1,v2,... before the query (repeatable)")
	fs.Var(&deletes, "delete", "delete a tuple Rel:v1,v2,... before the query (repeatable)")
	fs.Var(&upserts, "upsert", "upsert a tuple Rel:k:v1,v2,... replacing live tuples that match on the first k columns (repeatable)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *interactive && *savePath != "" {
		// The REPL is the last thing -i runs: a -save would never happen.
		return fmt.Errorf("-save does not combine with -i; use the REPL's save verb")
	}

	var db *fdb.DB
	if *openPath != "" {
		var err error
		if db, err = fdb.OpenSnapshotFile(*openPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "opened snapshot %s (version %d, %d relations)\n", *openPath, db.Version(), len(db.Relations()))
	} else {
		db = fdb.New()
	}
	for _, f := range loads {
		if _, err := db.LoadTSV(f); err != nil {
			return err
		}
	}
	if err := applyWrites(db, inserts, deletes, upserts); err != nil {
		return err
	}
	if *interactive {
		repl(db, *rows, in, out)
		return nil
	}
	if len(loads) == 0 && *from == "" && *openPath == "" {
		return demo(out)
	}
	if *from == "" {
		if *savePath != "" {
			return saveSnapshot(db, *savePath, out)
		}
		if *openPath != "" {
			return nil // open-and-inspect: the header line is the report
		}
		return fmt.Errorf("missing -from")
	}
	// The flags spell the REPL's query grammar: one token list, one parser.
	tokens := []string{"from", *from}
	add := func(word string, vals ...string) {
		for _, v := range vals {
			tokens = append(tokens, word, v)
		}
	}
	add("eq", eqs...)
	add("where", wheres...)
	if *project != "" {
		add("project", *project)
	}
	if *orderBy != "" {
		add("orderby", *orderBy)
	}
	if *distinct {
		tokens = append(tokens, "distinct")
	}
	if *offset > 0 {
		add("offset", strconv.Itoa(*offset))
	}
	if *limit >= 0 {
		add("limit", strconv.Itoa(*limit))
	}
	if *groupBy != "" {
		add("groupby", *groupBy)
	}
	add("agg", aggs...)
	clauses, err := parseQuery(tokens)
	if err != nil {
		return err
	}
	stmt, err := db.Prepare(clauses...)
	if err != nil {
		return err
	}
	args, err := parseArgs(params)
	if err != nil {
		return err
	}
	if err := execAndReport(out, stmt, args, *rows); err != nil {
		return err
	}
	if *savePath != "" {
		// The plan cache keeps the statement, and so its data holder, alive:
		// the snapshot carries its encoding.
		return saveSnapshot(db, *savePath, out)
	}
	return nil
}

// saveSnapshot writes the database to path in the zero-copy snapshot format
// (reopen with -open or the REPL open verb) and reports the file.
func saveSnapshot(db *fdb.DB, path string, out io.Writer) error {
	if err := db.SaveSnapshot(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "saved snapshot %s (version %d)\n", path, db.Version())
	return nil
}

// parseOrderBy turns "A,-B" into an OrderBy clause (leading '-': descending).
func parseOrderBy(s string) fdb.Clause {
	var keys []interface{}
	for _, tok := range strings.Split(s, ",") {
		if strings.HasPrefix(tok, "-") {
			keys = append(keys, fdb.Desc(tok[1:]))
		} else {
			keys = append(keys, fdb.Asc(tok))
		}
	}
	return fdb.OrderBy(keys...)
}

// parseAgg parses an aggregate token: count, sum(A), min(A), max(A) or
// distinct(A) (also accepted as count_distinct(A)).
func parseAgg(tok string) (fdb.Clause, error) {
	if tok == "count" {
		return fdb.Agg(fdb.Count, ""), nil
	}
	i := strings.Index(tok, "(")
	if i < 1 || !strings.HasSuffix(tok, ")") {
		return nil, fmt.Errorf("bad aggregate %q (want count, sum(A), min(A), max(A) or distinct(A))", tok)
	}
	attr := tok[i+1 : len(tok)-1]
	switch tok[:i] {
	case "sum":
		return fdb.Agg(fdb.Sum, attr), nil
	case "min":
		return fdb.Agg(fdb.Min, attr), nil
	case "max":
		return fdb.Agg(fdb.Max, attr), nil
	case "distinct", "count_distinct":
		return fdb.Agg(fdb.CountDistinct, attr), nil
	}
	return nil, fmt.Errorf("unknown aggregate function %q", tok[:i])
}

// parseWhere parses attr<op>value; a value of $name becomes a Param.
func parseWhere(w string) (fdb.Clause, error) {
	for _, op := range []struct {
		tok string
		cmp fdb.CmpOp
	}{{"!=", fdb.NE}, {"<=", fdb.LE}, {">=", fdb.GE}, {"<", fdb.LT}, {">", fdb.GT}, {"=", fdb.EQ}} {
		if i := strings.Index(w, op.tok); i > 0 {
			attr, val := w[:i], w[i+len(op.tok):]
			return fdb.Cmp(attr, op.cmp, parseValue(val)), nil
		}
	}
	return nil, fmt.Errorf("bad -where %q", w)
}

// parseValue turns a token into an int64, a Param placeholder ($name), or a
// string constant.
func parseValue(val string) interface{} {
	if strings.HasPrefix(val, "$") && len(val) > 1 {
		return fdb.Param(val[1:])
	}
	if n, err := strconv.ParseInt(val, 10, 64); err == nil {
		return n
	}
	return val
}

// parseConst parses a binding value: an int64 or a literal string (no
// placeholder interpretation — a value may legitimately start with '$').
func parseConst(val string) interface{} {
	if n, err := strconv.ParseInt(val, 10, 64); err == nil {
		return n
	}
	return val
}

// applyWrites applies the -insert/-delete/-upsert flags, in that flag
// order, before the query runs: the printed result reflects the writes
// (read-your-writes through the same path the REPL verbs use).
func applyWrites(db *fdb.DB, inserts, deletes, upserts []string) error {
	for _, tok := range inserts {
		name, vals, err := parseTuple(tok)
		if err != nil {
			return fmt.Errorf("bad -insert %q: %v", tok, err)
		}
		if err := db.Insert(name, vals...); err != nil {
			return err
		}
	}
	for _, tok := range deletes {
		name, vals, err := parseTuple(tok)
		if err != nil {
			return fmt.Errorf("bad -delete %q: %v", tok, err)
		}
		if err := db.Delete(name, vals...); err != nil {
			return err
		}
	}
	for _, tok := range upserts {
		parts := strings.SplitN(tok, ":", 3)
		if len(parts) != 3 {
			return fmt.Errorf("bad -upsert %q (want Rel:k:v1,v2,...)", tok)
		}
		key, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("bad -upsert key count %q", parts[1])
		}
		vals := parseValues(strings.Split(parts[2], ","))
		if err := db.Upsert(parts[0], key, vals...); err != nil {
			return err
		}
	}
	return nil
}

// parseTuple parses Rel:v1,v2,... into a relation name and encoded values.
func parseTuple(tok string) (string, []interface{}, error) {
	parts := strings.SplitN(tok, ":", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", nil, fmt.Errorf("want Rel:v1,v2,...")
	}
	return parts[0], parseValues(strings.Split(parts[1], ",")), nil
}

func parseValues(tokens []string) []interface{} {
	vals := make([]interface{}, len(tokens))
	for i, v := range tokens {
		vals[i] = parseConst(v)
	}
	return vals
}

// parseArgs turns name=value tokens into Exec arguments.
func parseArgs(tokens []string) ([]fdb.NamedArg, error) {
	var args []fdb.NamedArg
	for _, p := range tokens {
		parts := strings.SplitN(p, "=", 2)
		if len(parts) != 2 || parts[0] == "" {
			return nil, fmt.Errorf("bad parameter binding %q (want name=value)", p)
		}
		args = append(args, fdb.Arg(parts[0], parseConst(parts[1])))
	}
	return args, nil
}

// execAndReport runs a compiled statement and prints its result: one row per
// group for a statement that aggregates, the factorisation and its rows
// otherwise. Every query surface — flags, exec, query, squery — ends here.
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

// ------------------------------------------------------------------- REPL

const replHelp = `commands:
  load <path>                      load a TSV relation file
  rels                             list relations
  prepare <name> <query>           compile a statement through the plan cache ($x in where = parameter)
  exec <name> [k=v ...]            run a prepared statement
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
group, computed in a single pass over the factorised result.`

// repl reads commands from in until EOF or quit.
func repl(db *fdb.DB, rows int, in io.Reader, out io.Writer) {
	stmts := map[string]*fdb.Stmt{}
	snaps := map[string]*fdb.Snapshot{}
	sc := bufio.NewScanner(in)
	fmt.Fprintln(out, "fdb interactive — 'help' for commands")
	for {
		fmt.Fprint(out, "fdb> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			if err := sc.Err(); err != nil {
				fmt.Fprintln(out, "error reading input:", err)
			}
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, rest := fields[0], fields[1:]
		var err error
		switch cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Fprintln(out, replHelp)
		case "load":
			err = replLoad(db, rest, out)
		case "rels":
			for _, name := range db.Relations() {
				r, _ := db.Relation(name)
				fmt.Fprintf(out, "  %s%v: %d tuples\n", name, r.Schema, r.Cardinality())
			}
		case "prepare":
			err = replPrepare(db, stmts, rest, out)
		case "exec":
			err = replExec(stmts, rest, rows, out)
		case "query":
			err = replQuery(db, rest, rows, out)
		case "insert", "delete", "upsert":
			err = replWrite(db, cmd, rest, out)
		case "snapshot":
			err = replSnapshot(db, snaps, rest, out)
		case "squery":
			err = replSnapQuery(db, snaps, rest, rows, out)
		case "release":
			err = replRelease(snaps, rest, out)
		case "compact":
			if len(rest) != 1 {
				err = fmt.Errorf("usage: compact <Rel>")
			} else if err = db.Compact(rest[0]); err == nil {
				fmt.Fprintf(out, "  compacted %s (version %d)\n", rest[0], db.Version())
			}
		case "save":
			err = replSave(db, rest, out)
		case "open":
			var ndb *fdb.DB
			if ndb, err = replOpen(rest, out); ndb != nil {
				// The new database replaces the old wholesale: prepared
				// statements and pinned snapshots are views of a database
				// this session no longer serves, so they are discarded.
				db = ndb
				stmts = map[string]*fdb.Stmt{}
				for _, s := range snaps {
					s.Close()
				}
				snaps = map[string]*fdb.Snapshot{}
			}
		case "stats":
			s := db.CacheStats()
			fmt.Fprintf(out, "  plan cache: %d entries, %d hits, %d misses\n", s.Entries, s.Hits, s.Misses)
		default:
			err = fmt.Errorf("unknown command %q ('help' lists commands)", cmd)
		}
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
}

func replLoad(db *fdb.DB, rest []string, out io.Writer) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: load <path>")
	}
	name, err := db.LoadTSV(rest[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  loaded %s\n", name)
	return nil
}

func replPrepare(db *fdb.DB, stmts map[string]*fdb.Stmt, rest []string, out io.Writer) error {
	if len(rest) < 2 {
		return fmt.Errorf("usage: prepare <name> <query>")
	}
	clauses, err := parseQuery(rest[1:])
	if err != nil {
		return err
	}
	stmt, err := db.Prepare(clauses...)
	if err != nil {
		return err
	}
	stmts[rest[0]] = stmt
	if aggs := stmt.Aggregates(); len(aggs) > 0 {
		fmt.Fprintf(out, "  %s compiled: s(T)=%.1f, params %v, aggregates %v\n", rest[0], stmt.Cost(), stmt.Params(), aggs)
	} else {
		fmt.Fprintf(out, "  %s compiled: s(T)=%.1f, params %v\n", rest[0], stmt.Cost(), stmt.Params())
	}
	return nil
}

func replExec(stmts map[string]*fdb.Stmt, rest []string, rows int, out io.Writer) error {
	if len(rest) < 1 {
		return fmt.Errorf("usage: exec <name> [k=v ...]")
	}
	stmt, ok := stmts[rest[0]]
	if !ok {
		return fmt.Errorf("no prepared statement %q", rest[0])
	}
	args, err := parseArgs(rest[1:])
	if err != nil {
		return err
	}
	return execAndReport(out, stmt, args, rows)
}

// replWrite handles the insert/delete/upsert verbs. Writes commit
// immediately: the next query (prepared or ad-hoc, cached or fresh) sees
// them, while pinned snapshots keep their view.
func replWrite(db *fdb.DB, verb string, rest []string, out io.Writer) error {
	switch verb {
	case "insert":
		if len(rest) < 2 {
			return fmt.Errorf("usage: insert <Rel> v1 v2 ...")
		}
		if err := db.Insert(rest[0], parseValues(rest[1:])...); err != nil {
			return err
		}
	case "delete":
		if len(rest) < 2 {
			return fmt.Errorf("usage: delete <Rel> v1 v2 ...")
		}
		if err := db.Delete(rest[0], parseValues(rest[1:])...); err != nil {
			return err
		}
	case "upsert":
		if len(rest) < 3 {
			return fmt.Errorf("usage: upsert <Rel> <keycols> v1 v2 ...")
		}
		key, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad key column count %q", rest[1])
		}
		if err := db.Upsert(rest[0], key, parseValues(rest[2:])...); err != nil {
			return err
		}
	}
	r, _ := db.Relation(rest[0])
	fmt.Fprintf(out, "  %s %s: now %d tuples (version %d)\n", verb, rest[0], r.Cardinality(), db.Version())
	return nil
}

func replSnapshot(db *fdb.DB, snaps map[string]*fdb.Snapshot, rest []string, out io.Writer) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: snapshot <name>")
	}
	if old, ok := snaps[rest[0]]; ok {
		old.Close()
	}
	snaps[rest[0]] = db.Snapshot()
	fmt.Fprintf(out, "  snapshot %s pinned at version %d\n", rest[0], snaps[rest[0]].Version())
	return nil
}

func replSnapQuery(db *fdb.DB, snaps map[string]*fdb.Snapshot, rest []string, rows int, out io.Writer) error {
	if len(rest) < 2 {
		return fmt.Errorf("usage: squery <snapshot> <query>")
	}
	snap, ok := snaps[rest[0]]
	if !ok {
		return fmt.Errorf("no snapshot %q", rest[0])
	}
	clauses, err := parseQuery(rest[1:])
	if err != nil {
		return err
	}
	stmt, err := db.Prepare(clauses...)
	if err != nil {
		return err
	}
	if stmt, err = snap.Bind(stmt); err != nil {
		return err
	}
	return execAndReport(out, stmt, nil, rows)
}

func replRelease(snaps map[string]*fdb.Snapshot, rest []string, out io.Writer) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: release <name>")
	}
	snap, ok := snaps[rest[0]]
	if !ok {
		return fmt.Errorf("no snapshot %q", rest[0])
	}
	// The name stays bound to the closed snapshot: a later squery surfaces
	// the engine's closed-snapshot error instead of a lookup failure.
	snap.Close()
	fmt.Fprintf(out, "  snapshot %s released\n", rest[0])
	return nil
}

// replSave writes the session database to a snapshot file. The encodings of
// statements still alive ride along, one per data holder — prepared ones,
// and those the query verb left in the plan cache — so a later open serves
// them without a build.
func replSave(db *fdb.DB, rest []string, out io.Writer) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: save <path>")
	}
	if err := db.SaveSnapshot(rest[0]); err != nil {
		return err
	}
	fmt.Fprintf(out, "  saved snapshot %s (version %d)\n", rest[0], db.Version())
	return nil
}

// replOpen opens a snapshot file as a replacement session database (nil
// with an error when it cannot).
func replOpen(rest []string, out io.Writer) (*fdb.DB, error) {
	if len(rest) != 1 {
		return nil, fmt.Errorf("usage: open <path>")
	}
	db, err := fdb.OpenSnapshotFile(rest[0])
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  opened snapshot %s (version %d, %d relations)\n", rest[0], db.Version(), len(db.Relations()))
	return db, nil
}

// replQuery prepares through the plan cache, which keeps the statement —
// and so its data holder — alive, so a later save carries the query's
// encoding along.
func replQuery(db *fdb.DB, rest []string, rows int, out io.Writer) error {
	clauses, err := parseQuery(rest)
	if err != nil {
		return err
	}
	stmt, err := db.Prepare(clauses...)
	if err != nil {
		return err
	}
	return execAndReport(out, stmt, nil, rows)
}

// queryWords is the query grammar's vocabulary: every word but distinct
// takes one argument, named here for the "needs" error.
var queryWords = map[string]struct {
	needs string
	parse func(arg string) (fdb.Clause, error)
}{
	"from":    {"a relation list", func(a string) (fdb.Clause, error) { return fdb.From(strings.Split(a, ",")...), nil }},
	"eq":      {"A=B", parseEq},
	"where":   {"a condition", parseWhere},
	"project": {"an attribute list", func(a string) (fdb.Clause, error) { return fdb.Project(strings.Split(a, ",")...), nil }},
	"orderby": {"a key list (e.g. A,-B)", func(a string) (fdb.Clause, error) { return parseOrderBy(a), nil }},
	"limit":   {"a count", parseCount("limit", fdb.Limit)},
	"offset":  {"a count", parseCount("offset", fdb.Offset)},
	"groupby": {"an attribute list", func(a string) (fdb.Clause, error) { return fdb.GroupBy(strings.Split(a, ",")...), nil }},
	"agg":     {"a function (count, sum(A), min(A), max(A), distinct(A))", parseAgg},
}

// parseQuery parses the query grammar shared by the flags and the REPL:
// from R1,R2 eq A=B ... where ATTR<op>VAL ... project A,B orderby A,-B
// limit N offset N distinct groupby A,B agg count|sum(A)|...
func parseQuery(tokens []string) ([]fdb.Clause, error) {
	var clauses []fdb.Clause
	for i := 0; i < len(tokens); i++ {
		if tokens[i] == "distinct" {
			clauses = append(clauses, fdb.Distinct())
			continue
		}
		w, ok := queryWords[tokens[i]]
		if !ok {
			return nil, fmt.Errorf("unexpected token %q", tokens[i])
		}
		if i+1 >= len(tokens) {
			return nil, fmt.Errorf("%s needs %s", tokens[i], w.needs)
		}
		i++
		c, err := w.parse(tokens[i])
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, c)
	}
	return clauses, nil
}

func parseEq(arg string) (fdb.Clause, error) {
	parts := strings.SplitN(arg, "=", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad eq %q", arg)
	}
	return fdb.Eq(parts[0], parts[1]), nil
}

// parseCount parses the argument of limit and offset.
func parseCount(word string, clause func(int) fdb.Clause) func(string) (fdb.Clause, error) {
	return func(arg string) (fdb.Clause, error) {
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", word, arg)
		}
		return clause(n), nil
	}
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
