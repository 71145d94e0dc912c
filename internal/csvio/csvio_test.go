package csvio

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestReadBasic(t *testing.T) {
	in := "Orders\toid\titem\n1\tMilk\n2\tCheese\n\n3\tMilk\n"
	d := relation.NewDict()
	tab, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r := tab.Encode(d)
	if r.Name != "Orders" || r.Cardinality() != 3 {
		t.Fatalf("got %s with %d tuples", r.Name, r.Cardinality())
	}
	want := relation.Schema{"Orders.oid", "Orders.item"}
	if !r.Schema.Equal(want) {
		t.Fatalf("schema = %v", r.Schema)
	}
	// Integers stay numeric; strings dictionary-encode.
	if r.Tuples[0][0] != 1 {
		t.Fatalf("numeric field mangled: %v", r.Tuples[0])
	}
	if d.Decode(r.Tuples[0][1]) != "Milk" {
		t.Fatal("string field not dictionary-encoded")
	}
	// Same string twice encodes to the same value.
	if r.Tuples[0][1] != r.Tuples[2][1] {
		t.Fatal("dictionary not shared across rows")
	}
	if want := []relation.Kind{relation.KindInt, relation.KindStr}; !slices.Equal(tab.Kinds, want) {
		t.Fatalf("kinds = %v, want %v", tab.Kinds, want)
	}
}

// TestColumnKind: one field that does not parse as an integer makes the
// whole column a string column, whose numerals are strings too; a file
// without tuples fixes no kind.
func TestColumnKind(t *testing.T) {
	tab, err := Read(strings.NewReader("R\ta\tb\n7\t1\n8\tMilk\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []relation.Kind{relation.KindInt, relation.KindStr}; !slices.Equal(tab.Kinds, want) {
		t.Fatalf("kinds = %v, want %v", tab.Kinds, want)
	}
	d := relation.NewDict()
	r := tab.Encode(d)
	if d.Len() != 2 || d.Decode(r.Tuples[0][1]) != "1" || r.Tuples[0][0] != 7 {
		t.Fatalf("tuples %v over %d strings: the string column's numeral is not a string", r.Tuples, d.Len())
	}
	empty, err := Read(strings.NewReader("R\ta\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []relation.Kind{relation.KindNone}; !slices.Equal(empty.Kinds, want) {
		t.Fatalf("kinds of an empty file = %v, want %v", empty.Kinds, want)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                // empty
		"OnlyName\n",      // no attributes
		"R\ta\tb\n1\n",    // arity mismatch
		"R\ta\ta\n1\t2\n", // duplicate attribute
		"R\ta\t\n1\t2\n",  // empty attribute name
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	d := relation.NewDict()
	r := relation.New("R", relation.Schema{"R.a", "R.b"})
	r.Append(0, d.Encode("x"))
	r.Append(2, d.Encode("y"))
	var buf bytes.Buffer
	if err := Write(&buf, r, d.Snapshot(), []relation.Kind{relation.KindInt, relation.KindStr}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "R\ta\tb\n0\tx\n2\ty\n"; got != want {
		t.Fatalf("Write = %q, want %q", got, want)
	}
	d2 := relation.NewDict()
	tab, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := tab.Encode(d2)
	if !back.Schema.Equal(r.Schema) || back.Cardinality() != 2 {
		t.Fatalf("round trip wrong: %v (%d tuples)", back.Schema, back.Cardinality())
	}
	if d2.Decode(back.Tuples[0][1]) != "x" || d2.Decode(back.Tuples[1][1]) != "y" {
		t.Fatal("string values lost in round trip")
	}
}

func TestRoundTripNumericNilDict(t *testing.T) {
	r := relation.New("N", relation.Schema{"N.a"})
	r.Append(-7)
	r.Append(42)
	var buf bytes.Buffer
	if err := Write(&buf, r, nil, nil); err != nil {
		t.Fatal(err)
	}
	tab, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := tab.Encode(relation.NewDict())
	if back.Tuples[0][0] != -7 || back.Tuples[1][0] != 42 {
		t.Fatalf("numeric round trip wrong: %v", back.Tuples)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.tsv")
	d := relation.NewDict()
	r := relation.New("R", relation.Schema{"R.a"})
	r.Append(d.Encode("hello"))
	if err := WriteFile(path, r, d.Snapshot(), []relation.Kind{relation.KindStr}); err != nil {
		t.Fatal(err)
	}
	tab, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back := tab.Encode(d)
	if back.Cardinality() != 1 || d.Decode(back.Tuples[0][0]) != "hello" {
		t.Fatal("file round trip wrong")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.tsv")); err == nil {
		t.Fatal("missing file accepted")
	}
}
