package frep

import (
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

// Property: Export followed by AdoptEnc over a clone of the tree is the
// identity — same validation, same enumeration — without copying the arena.
func TestQuickExportAdoptRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		e := quickEnc(seed)
		a, spans := e.Export()
		got, err := AdoptEnc(e.Tree.Clone(), a, spans)
		if err != nil {
			t.Logf("adopt: %v", err)
			return false
		}
		if got.IsEmpty() != e.IsEmpty() || got.Count() != e.Count() || got.Size() != e.Size() {
			return false
		}
		var want, have []relation.Tuple
		e.Enumerate(func(tp relation.Tuple) bool { want = append(want, tp.Clone()); return true })
		got.Enumerate(func(tp relation.Tuple) bool { have = append(have, tp.Clone()); return true })
		if len(want) != len(have) {
			return false
		}
		for i := range want {
			if want[i].Compare(have[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Hostile exports must be rejected with an error, never a panic.
func TestAdoptEncRejectsHostileSpans(t *testing.T) {
	e := quickEnc(0)
	for seed := int64(1); e.IsEmpty(); seed++ {
		e = quickEnc(seed)
	}
	a, spans := e.Export()
	tree := e.Tree.Clone()

	mut := func(name string, f func(s []NodeSpan) []NodeSpan) {
		cp := append([]NodeSpan(nil), spans...)
		if _, err := AdoptEnc(tree, a, f(cp)); err == nil {
			t.Errorf("%s: adopted hostile spans without error", name)
		}
	}
	mut("missing span", func(s []NodeSpan) []NodeSpan { return s[:len(s)-1] })
	mut("extra span", func(s []NodeSpan) []NodeSpan { return append(s, NodeSpan{}) })
	mut("negative lo", func(s []NodeSpan) []NodeSpan { s[0].ValLo = -1; return s })
	mut("inverted span", func(s []NodeSpan) []NodeSpan { s[0].ValLo, s[0].ValHi = s[0].ValHi+1, s[0].ValLo; return s })
	mut("val overrun", func(s []NodeSpan) []NodeSpan { s[0].ValHi = int32(len(a.Vals)) + 7; return s })
	mut("off overrun", func(s []NodeSpan) []NodeSpan { s[0].OffHi = int32(len(a.Offs)) + 7; return s })
	mut("empty offsets", func(s []NodeSpan) []NodeSpan { s[0].OffLo, s[0].OffHi = 0, 0; return s })
}
