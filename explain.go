package fdb

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// PlanSearch is how planTree ended for a statement's f-tree.
type PlanSearch uint8

const (
	// GreedyKept: the exhaustive search finished and found no strictly
	// cheaper tree than the greedy one.
	GreedyKept PlanSearch = iota
	// SearchAdopted: the exhaustive search found a strictly cheaper tree.
	SearchAdopted
	// SearchCut: the search ran out of planBudget; the greedy tree stands.
	SearchCut
)

func (s PlanSearch) String() string {
	switch s {
	case SearchAdopted:
		return "search tree adopted, strictly cheaper than greedy"
	case SearchCut:
		return "greedy tree kept, search cut by the budget"
	}
	return "greedy tree kept, search found nothing cheaper"
}

// OrderPlan is how a statement's ORDER BY leaves it, and why.
type OrderPlan uint8

const (
	// NoOrder: the statement has no ORDER BY keys.
	NoOrder OrderPlan = iota
	// OrderStreams: the keys stream over the tree as planned.
	OrderStreams
	// OrderStreamsAdopted: the keys stream over the order-compatible tree
	// the planner adopted in place of the planned one.
	OrderStreamsAdopted
	// OrderDeclined: retrieval sorts, because opt.PreferOrdered declined
	// the costlier order-compatible tree (Explanation.OrderedCost).
	OrderDeclined
	// OrderIncompatible: retrieval sorts, because no f-tree of the query
	// streams the order.
	OrderIncompatible
)

// Streams reports whether the compiled f-tree streams the ORDER BY: no
// sort, and a Limit short-circuits. A projection applied at Exec time can
// still restructure the tree, in which case retrieval re-checks and may
// fall back to the bounded-heap sort (Result.OrderStreamed).
func (o OrderPlan) Streams() bool { return o == OrderStreams || o == OrderStreamsAdopted }

func (o OrderPlan) String() string {
	switch o {
	case OrderStreams:
		return "streams as planned"
	case OrderStreamsAdopted:
		return "streams on the adopted order-compatible tree"
	case OrderDeclined:
		return "sorts, the order-compatible tree was declined"
	case OrderIncompatible:
		return "sorts, no f-tree streams the order"
	}
	return "no keys"
}

// Explanation is what Stmt.Explain reports: the decisions DB.plan made for
// a statement, and the data holder it executes over.
type Explanation struct {
	FTree       string   // the compiled f-tree, as Stmt.FTree renders it
	Cost        float64  // s(T) of the compiled f-tree, after any group-by lift
	Consts      []string // attributes the tree binds to a constant
	Search      PlanSearch
	Order       OrderPlan
	OrderedCost float64 // OrderDeclined: s(T) of the declined order-compatible tree
	Memoises    bool    // no Param: the encoding is built once per input version
	Inputs      []ExplainInput

	// Holder is the data holder's serial number, unique within the
	// database: two statements share their inputs and memoised encoding
	// exactly when their Holder is equal. HolderKey is a short hash of the
	// holder's key, the name a snapshot file carries its encoding under.
	Holder    uint64
	HolderKey string
	// Adopted reports that the holder serves the arena the database's
	// snapshot file carried under its key, not a build of its own.
	Adopted bool
}

// ExplainInput is one input relation of an Explanation.
type ExplainInput struct {
	Name      string
	Baked     []string // constant selections, folded into the loaded input
	Bound     []string // Param selections, bound per Exec
	PathOrder []string // the attributes the input is kept sorted by
}

// Explain reports the statement's compiled plan and its data holder. It
// reads the plan and the holder's current data; it runs nothing.
func (st *Stmt) Explain() Explanation {
	e := Explanation{
		FTree:       st.tree.String(),
		Cost:        st.tree.S(),
		Search:      st.search,
		Order:       st.order,
		OrderedCost: st.orderedCost,
		Memoises:    st.memoises(),
		Holder:      st.src.serial,
	}
	// Adopted: the memoised encoding aliases the storage of the arena the
	// snapshot file carried under the holder's key. An empty arena aliases
	// nothing, so it never counts.
	if se, ok := st.db.adopted[st.src.key]; ok && len(se.Enc.A.Vals) > 0 {
		if d := st.src.data.Load(); d != nil {
			d.mu.Lock()
			enc := d.enc
			d.mu.Unlock()
			e.Adopted = enc != nil && len(enc.A.Vals) > 0 && &enc.A.Vals[0] == &se.Enc.A.Vals[0]
		}
	}
	for _, a := range st.tree.Consts.Sorted() {
		e.Consts = append(e.Consts, string(a))
	}
	h := fnv.New32a()
	h.Write([]byte(st.src.key))
	e.HolderKey = fmt.Sprintf("%08x", h.Sum32())
	for _, in := range st.inputs {
		x := ExplainInput{Name: in.store.Name}
		for _, s := range in.sels {
			switch v := s.val.(type) {
			case ParamValue:
				x.Bound = append(x.Bound, fmt.Sprintf("%s %s $%s", s.attr, s.op, v.name))
			case string:
				x.Baked = append(x.Baked, fmt.Sprintf("%s %s %q", s.attr, s.op, v))
			default:
				c, _ := toValue(v)
				x.Baked = append(x.Baked, fmt.Sprintf("%s %s %d", s.attr, s.op, c))
			}
		}
		for _, c := range in.sortIdx {
			x.PathOrder = append(x.PathOrder, string(in.store.Schema[c]))
		}
		e.Inputs = append(e.Inputs, x)
	}
	return e
}

// String renders the explanation one decision a line, the f-tree last.
func (e Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "s(T)=%.2f: %s\n", e.Cost, e.Search)
	fmt.Fprintf(&b, "consts: %s\n", noneOr(e.Consts))
	fmt.Fprintf(&b, "order: %s", e.Order)
	if e.Order == OrderDeclined {
		fmt.Fprintf(&b, " (s(T)=%.2f against %.2f)", e.OrderedCost, e.Cost)
	}
	fmt.Fprintf(&b, "\nmemoises: %s\n", yesNo(e.Memoises))
	for _, in := range e.Inputs {
		fmt.Fprintf(&b, "input %s: baked %s; per-Exec %s; path order %s\n",
			in.Name, noneOr(in.Baked), noneOr(in.Bound), strings.Join(in.PathOrder, ","))
	}
	fmt.Fprintf(&b, "holder #%d (key %s), adopted: %s\nf-tree:\n%s", e.Holder, e.HolderKey, yesNo(e.Adopted), e.FTree)
	return b.String()
}

func noneOr(xs []string) string {
	if len(xs) == 0 {
		return "none"
	}
	return strings.Join(xs, ", ")
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
