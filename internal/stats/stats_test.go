package stats

import (
	"testing"

	"repro/internal/fbuild"
	"repro/internal/ftree"
	"repro/internal/relation"
)

func TestCollect(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B"})
	r.Append(1, 1)
	r.Append(1, 2)
	r.Append(2, 2)
	c := Collect([]*relation.Relation{r})
	if c.Card["R"] != 3 {
		t.Fatalf("card = %d", c.Card["R"])
	}
	if c.Distinct["A"] != 2 || c.Distinct["B"] != 2 {
		t.Fatalf("distinct = %v", c.Distinct)
	}
}

func TestEstimateSizeProductVsPath(t *testing.T) {
	// Two independent attributes with 10 distinct values each: as a forest
	// the estimate is 10+10; as a chain it is 10 + 10*10.
	r := relation.New("R", relation.Schema{"A"})
	s := relation.New("S", relation.Schema{"B"})
	for i := 0; i < 10; i++ {
		r.Append(relation.Value(i))
		s.Append(relation.Value(i))
	}
	cat := Collect([]*relation.Relation{r, s})
	rels := []relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B")}

	forest := ftree.New([]*ftree.Node{ftree.NewNode("A"), ftree.NewNode("B")}, rels)
	chain := ftree.New([]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"))}, rels)

	ef, ec := cat.EstimateSize(forest), cat.EstimateSize(chain)
	if ef != 20 {
		t.Fatalf("forest estimate = %v, want 20", ef)
	}
	if ec != 110 {
		t.Fatalf("chain estimate = %v, want 110", ec)
	}
	if ef >= ec {
		t.Fatal("estimate does not prefer the factorised shape")
	}
}

// TestEstimateTracksActualOnProduct: on a genuine product the estimate is
// exact (independence holds by construction).
func TestEstimateTracksActualOnProduct(t *testing.T) {
	r := relation.New("R", relation.Schema{"A"})
	s := relation.New("S", relation.Schema{"B"})
	for i := 0; i < 7; i++ {
		r.Append(relation.Value(i))
	}
	for i := 0; i < 4; i++ {
		s.Append(relation.Value(i))
	}
	cat := Collect([]*relation.Relation{r, s})
	rels := []relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B")}
	forest := ftree.New([]*ftree.Node{ftree.NewNode("A"), ftree.NewNode("B")}, rels)
	f, err := fbuild.BuildEnc([]*relation.Relation{r, s}, forest)
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.EstimateSize(forest); got != float64(f.Size()) {
		t.Fatalf("estimate %v != actual %d", got, f.Size())
	}
}

func TestConstClassEstimatesOne(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B"})
	for i := 0; i < 5; i++ {
		r.Append(relation.Value(i), relation.Value(i%2))
	}
	cat := Collect([]*relation.Relation{r})
	rels := []relation.AttrSet{relation.NewAttrSet("A", "B")}
	chain := ftree.New([]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"))}, rels)
	base := cat.EstimateSize(chain)
	chain.MarkConst("A")
	if got := cat.EstimateSize(chain); got >= base {
		t.Fatalf("const marking did not reduce the estimate: %v >= %v", got, base)
	}
}

func TestEstimatePlanCost(t *testing.T) {
	r := relation.New("R", relation.Schema{"A"})
	r.Append(1)
	cat := Collect([]*relation.Relation{r})
	tr := ftree.New([]*ftree.Node{ftree.NewNode("A")},
		[]relation.AttrSet{relation.NewAttrSet("A")})
	if got := cat.EstimatePlanCost([]*ftree.T{tr, tr}); got != 2*cat.EstimateSize(tr) {
		t.Fatalf("plan cost = %v", got)
	}
}
