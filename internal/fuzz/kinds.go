package fuzz

import (
	"errors"
	"fmt"
	"math/rand"

	fdb "repro"
	"repro/internal/relation"
)

// checkKinds is the mixed-kind leg: every attribute of a case has one kind
// (integer, or string in string cases), and every way of meeting one with a
// value of the other kind must be refused with an *fdb.KindError naming it
// and both kinds, without growing the dictionary — a wrong-kind Insert,
// InsertBatch and Upsert, a constant in a query, an equality with an
// attribute of the other kind (in a query and in a Join), a parameter bound
// at Exec, and SUM, MIN or MAX over a string attribute. The other-kind
// attribute is a one-column relation the leg creates, which no case query
// reads. The leg draws from its own random stream, so the case derivation
// (and every recorded seed) is unchanged by it.
func (c *Case) checkKinds(db *fdb.DB, fail func(string, ...interface{}) error) error {
	rng := rand.New(rand.NewSource(c.Seed ^ 0x6b696e64))
	rel := c.rels[rng.Intn(len(c.rels))]
	col := rng.Intn(len(rel.Schema))
	attr := string(rel.Schema[col])
	kind, other := relation.KindInt, relation.KindStr
	if c.strs != nil {
		kind, other = other, kind
	}
	// otherVal is a value of the other kind: an integer that may equal a
	// stored code, or a string the dictionary may not hold.
	otherVal := func() interface{} {
		if other == relation.KindInt {
			return rng.Intn(c.dom + 2)
		}
		return fmt.Sprintf("k%d", rng.Intn(c.dom+2))
	}
	row := func(bad bool) []interface{} {
		t := rel.Tuples[rng.Intn(len(rel.Tuples))]
		out := make([]interface{}, len(t))
		for i, v := range t {
			out[i] = int64(v)
			if c.strs != nil {
				out[i] = c.strs[v-1]
			}
		}
		if bad {
			out[col] = otherVal()
		}
		return out
	}

	kname := fmt.Sprintf("Kind%d", c.Seed)
	kattr := kname + ".v"
	if err := db.Create(kname, "v"); err != nil {
		return fail("kinds: create: %v", err)
	}
	if err := db.Insert(kname, otherVal()); err != nil {
		return fail("kinds: insert into %s: %v", kname, err)
	}
	strAttr := attr
	if kind == relation.KindInt {
		strAttr = kattr
	}
	base := fdb.From(rel.Name)
	param, err := db.Prepare(base, fdb.Cmp(attr, fdb.EQ, fdb.Param("p")))
	if err != nil {
		return fail("kinds: prepare a parameter on %s: %v", attr, err)
	}
	left, err := db.Query(base)
	if err != nil {
		return fail("kinds: query %s: %v", rel.Name, err)
	}
	right, err := db.Query(fdb.From(kname))
	if err != nil {
		return fail("kinds: query %s: %v", kname, err)
	}
	ops := []fdb.CmpOp{fdb.EQ, fdb.NE, fdb.LT, fdb.LE, fdb.GT, fdb.GE}
	aggs := []fdb.AggFn{fdb.Sum, fdb.Min, fdb.Max}
	strs := db.Dict().Len()
	for _, leg := range []struct {
		name      string
		err       func() error
		attr      string
		want, got relation.Kind // zero: any refusal
	}{
		{"Insert", func() error { return db.Insert(rel.Name, row(true)...) }, attr, kind, other},
		{"InsertBatch", func() error {
			return db.InsertBatch(rel.Name, [][]interface{}{row(false), row(true)})
		}, attr, kind, other},
		{"Upsert", func() error { return db.Upsert(rel.Name, 1+rng.Intn(len(rel.Schema)), row(true)...) }, attr, kind, other},
		{"constant", func() error {
			_, err := db.Prepare(base, fdb.Cmp(attr, ops[rng.Intn(len(ops))], otherVal()))
			return err
		}, attr, kind, other},
		{"Eq", func() error { _, err := db.Prepare(fdb.From(rel.Name, kname), fdb.Eq(attr, kattr)); return err }, attr, kind, other},
		{"Join", func() error { _, err := left.Join(right, fdb.Eq(kattr, attr)); return err }, kattr, other, kind},
		{"Exec parameter", func() error { _, err := param.Exec(fdb.Arg("p", otherVal())); return err }, attr, kind, other},
		{"aggregate", func() error {
			from := fdb.From(rel.Name)
			if strAttr == kattr {
				from = fdb.From(kname)
			}
			_, err := db.Prepare(from, fdb.Agg(aggs[rng.Intn(len(aggs))], strAttr))
			return err
		}, "", 0, 0},
	} {
		err := leg.err()
		var kerr *fdb.KindError
		switch {
		case err == nil:
			return fail("kinds: %s of %s on %s accepted", leg.name, other, attr)
		case leg.want != 0 && (!errors.As(err, &kerr) || kerr.Attr != leg.attr || kerr.Want != leg.want || kerr.Got != leg.got):
			return fail("kinds: %s: err = %v, want a *KindError on %s (%s, got %s)", leg.name, err, leg.attr, leg.want, leg.got)
		}
		if n := db.Dict().Len(); n != strs {
			return fail("kinds: the refused %s grew the dictionary from %d to %d strings", leg.name, strs, n)
		}
	}
	return nil
}
