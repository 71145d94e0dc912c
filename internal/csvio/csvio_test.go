package csvio

import (
	"bytes"
	"path/filepath"
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
	r.Append(1, d.Encode("x"))
	r.Append(2, d.Encode("y"))
	var buf bytes.Buffer
	if err := Write(&buf, r, d); err != nil {
		t.Fatal(err)
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
	if err := Write(&buf, r, nil); err != nil {
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
	if err := WriteFile(path, r, d); err != nil {
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
