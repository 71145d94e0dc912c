package opt

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/relation"
)

// greedyGoldenFile pins GreedyPlan's output on a fixed corpus: the plans the
// engine serves when an f-plan search runs out of budget must not move when
// the planner's code does.
const greedyGoldenFile = "testdata/greedy_plans.golden"

// greedyCorpus draws instances the way fdbench's Experiment 2 does (seed 42,
// R=4 relations over A=10 attributes, K equalities for the f-tree and L
// non-redundant conditions on it, K+L < A), cycling its grid until n
// instances are drawn.
func greedyCorpus(t *testing.T, n int) []greedyInstance {
	t.Helper()
	const r, a = 4, 10
	rng := rand.New(rand.NewSource(42))
	var out []greedyInstance
	for len(out) < n {
		for k := 1; k <= 8 && len(out) < n; k++ {
			for l := 1; l <= 6 && len(out) < n; l++ {
				if k+l >= a {
					continue
				}
				sch, err := gen.RandomSchema(rng, r, a)
				if err != nil {
					continue
				}
				eqs, err := gen.RandomEqualities(rng, sch, k)
				if err != nil {
					continue
				}
				q := &core.Query{Equalities: eqs}
				for j, s := range sch.Relations {
					q.Relations = append(q.Relations, relation.New(sch.Names[j], s))
				}
				tr, _, err := OptimalFTree(q.Classes(), q.Schemas(), TreeSearchOptions{})
				if err != nil {
					continue
				}
				conds, ok := drawGoldenConditions(rng, tr, q.Attributes(), l)
				if !ok {
					continue
				}
				out = append(out, greedyInstance{k: k, l: l, tree: tr, conds: conds})
			}
		}
	}
	return out
}

type greedyInstance struct {
	k, l  int
	tree  *ftree.T
	conds []Condition
}

// drawGoldenConditions draws l conditions on the classes of tr, each merging
// two classes of a scratch copy so later ones stay non-redundant — the
// drawing of Experiment 2.
func drawGoldenConditions(rng *rand.Rand, tr *ftree.T, attrs []relation.Attribute, l int) ([]Condition, bool) {
	var conds []Condition
	work := tr.Clone()
	for guard := 0; len(conds) < l; guard++ {
		if guard > 100000 {
			return nil, false
		}
		x, y := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
		nx, ny := work.NodeOf(x), work.NodeOf(y)
		if nx == nil || ny == nil || nx == ny {
			continue
		}
		nx.Attrs = append(nx.Attrs, ny.Attrs...)
		siblings := &work.Roots
		if p := work.ParentOf(ny); p != nil {
			siblings = &p.Children
		}
		for i, c := range *siblings {
			if c == ny {
				*siblings = append((*siblings)[:i], (*siblings)[i+1:]...)
				break
			}
		}
		*siblings = append(*siblings, ny.Children...)
		conds = append(conds, Condition{A: x, B: y})
	}
	return conds, true
}

// renderGreedy is one golden line per instance: the plan, s(f), the final
// tree's s and the scenarios costed, floats in their shortest exact form.
func renderGreedy(in greedyInstance) string {
	res, err := GreedyPlan(in.tree, in.conds)
	if err != nil {
		return fmt.Sprintf("K=%d L=%d conds=%v error=%v", in.k, in.l, in.conds, err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("K=%d L=%d conds=%v plan=%q cost=%s final_s=%s explored=%d",
		in.k, in.l, in.conds, res.Plan.String(), f(res.Cost), f(res.FinalS), res.Explored)
}

// TestGreedyPlanGolden: GreedyPlan reproduces its recorded plans, costs and
// explored counts byte for byte on the Experiment 2 corpus.
func TestGreedyPlanGolden(t *testing.T) {
	var lines []string
	for _, in := range greedyCorpus(t, 40) {
		lines = append(lines, renderGreedy(in))
	}
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(greedyGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("instance %d moved:\n got %s\nwant %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
	}
}
