// Package fdb is an in-memory query engine for factorised relational
// databases — a faithful reimplementation of
//
//	Bakibayev, Olteanu, Závodný:
//	"FDB: A Query Engine for Factorised Relational Databases", VLDB 2012.
//
// The engine spends its optimisation budget before execution: it searches
// for an f-tree of minimal cost s(T), pre-filters and dedups the inputs,
// and only then builds the factorised result. The API is therefore built
// around compiled, reusable statements: Prepare pays the compile cost once
// per query shape — it resolves through an LRU plan cache keyed by the
// query's canonical fingerprint (see CacheStats), so every caller preparing
// the shape shares one statement — Exec runs the compiled statement cheaply
// many times, and Param placeholders let one plan serve millions of
// distinct constant values:
//
//	db := fdb.New()
//	db.MustCreate("Orders", "oid", "item")
//	db.MustInsert("Orders", 1, "Milk")
//	...
//	stmt, err := db.Prepare(
//		fdb.From("Orders", "Store", "Disp"),
//		fdb.Eq("Orders.item", "Store.item"),
//		fdb.Eq("Store.location", "Disp.location"),
//		fdb.Cmp("Orders.item", fdb.EQ, fdb.Param("item")))
//	res, err := stmt.Exec(fdb.Arg("item", "Milk"))   // compiled once, run many
//	res, err = stmt.Exec(fdb.Arg("item", "Cheese"))  // same plan, new constant
//
// Exec is safe for concurrent callers; ExecContext adds cancellation for
// long factorisation builds. Prepare reads the query and the schemas only;
// a Stmt loads its input relations on its first Exec and follows their
// writes from then on. A Snapshot pins a consistent read view; Bind pins a
// prepared statement to it.
//
// Ad-hoc queries are Prepare followed by Exec, so they reuse plans through
// the same cache:
//
//	res, err := db.Query(
//		fdb.From("Orders", "Store", "Disp"),
//		fdb.Eq("Orders.item", "Store.item"),
//		fdb.Eq("Store.location", "Disp.location"))
//	fmt.Println(res.Size(), res.Count()) // singletons vs tuples
//	res2, err := res.Where(fdb.Cmp("Disp.dispatcher", fdb.EQ, "Adnan"),
//		fdb.Project("Orders.oid", "Disp.location"),
//		fdb.OrderBy("Orders.oid"), fdb.Limit(10)) // on factorised data
//
// A result is refined one way, with Where: it takes the clauses a query
// takes (From, parameters and aggregation excepted), and the last Where
// finishes the result with OrderBy, Offset, Limit and Distinct. Join (the
// paper's Example 2, joining two factorised results) and the set
// operations Union, UnionAll, Except and Intersect combine results; Join
// hands its clauses to Where.
//
// Aggregates (COUNT, SUM, MIN, MAX, COUNT DISTINCT — optionally grouped)
// are computed in a single pass over the factorised representation, in
// time proportional to its factorised size, never by enumerating the flat
// result:
//
//	ar, err := db.QueryAgg(
//		fdb.From("Orders", "Store", "Disp"),
//		fdb.Eq("Orders.item", "Store.item"),
//		fdb.Eq("Store.location", "Disp.location"),
//		fdb.GroupBy("Store.location"),
//		fdb.Agg(fdb.Count, ""), fdb.Agg(fdb.Sum, "Orders.oid"))
//	v, err := ar.Int(0, "count") // one row per group, sorted by key
//
// QueryAgg is Prepare followed by ExecAgg. Grouped statements restructure
// their f-tree at compile time so group-by attributes sit above aggregated
// ones; Prepare + ExecAgg reuse the restructured plan per binding.
//
// Relations are presented at the logical layer, but results (and, when
// desired, inputs of follow-up queries) are stored as factorised
// representations: algebraic expressions over singletons, union and product
// whose nesting structure is an f-tree. On data with many-to-many
// relationships, factorised results can be orders of magnitude smaller than
// flat ones, and select-project-join queries are evaluated directly on the
// factorised form by f-plans of restructuring and selection operators.
//
// Attribute names are written "Relation.attr" and kept globally unique
// internally. Each attribute has one kind, integer or string, which the
// first write into its relation fixes; a value, constant, parameter or
// equality of the other kind is refused with a *KindError.
package fdb
