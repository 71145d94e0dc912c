package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fbuild"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// testSet builds a small but fully featured snapshot: a dictionary, two
// relations (one empty, its kinds not fixed), and a pre-built enc over a
// two-level tree.
func testSet(t *testing.T) *Set {
	t.Helper()
	r := relation.New("R", relation.Schema{"a", "b"})
	for _, tp := range [][2]relation.Value{{1, 10}, {1, 20}, {2, 10}, {3, 30}} {
		r.Append(tp[0], tp[1])
	}
	empty := relation.New("Void", relation.Schema{"v"})
	tr := ftree.New(
		[]*ftree.Node{ftree.NewNode("a").Add(ftree.NewNode("b"))},
		[]relation.AttrSet{relation.NewAttrSet("a", "b")},
	)
	enc, err := fbuild.BuildEnc([]*relation.Relation{r}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return &Set{
		Ver:  7,
		Dict: []string{"apple", "pear", "plum"},
		Rels: []Relation{{Ver: 5, Rel: r, Kinds: []relation.Kind{relation.KindInt, relation.KindStr}}, {Ver: 2, Rel: empty}},
		Encs: []Enc{{Key: "q1", Inputs: []Input{{Name: "R", Ver: 5}}, Enc: enc}},
	}
}

func tuplesOf(e *frep.Enc) []relation.Tuple {
	var out []relation.Tuple
	e.Enumerate(func(tp relation.Tuple) bool { out = append(out, tp.Clone()); return true })
	return out
}

func checkFile(t *testing.T, set *Set, f *File) {
	t.Helper()
	if f.Ver != set.Ver {
		t.Fatalf("Ver = %d, want %d", f.Ver, set.Ver)
	}
	if len(f.Dict) != len(set.Dict) {
		t.Fatalf("dict has %d strings, want %d", len(f.Dict), len(set.Dict))
	}
	for i, s := range set.Dict {
		if f.Dict[i] != s {
			t.Fatalf("dict[%d] = %q, want %q", i, f.Dict[i], s)
		}
	}
	if len(f.Rels) != len(set.Rels) {
		t.Fatalf("%d relations, want %d", len(f.Rels), len(set.Rels))
	}
	for i, want := range set.Rels {
		got := f.Rels[i]
		if got.Ver != want.Ver || got.Rel.Name != want.Rel.Name || !got.Rel.Schema.Equal(want.Rel.Schema) {
			t.Fatalf("relation %d header mismatch: %+v", i, got)
		}
		wantKinds := want.Kinds
		if wantKinds == nil {
			wantKinds = make([]relation.Kind, len(want.Rel.Schema))
		}
		if !slices.Equal(got.Kinds, wantKinds) {
			t.Fatalf("relation %q kinds %v, want %v", want.Rel.Name, got.Kinds, wantKinds)
		}
		if len(got.Rel.Tuples) != len(want.Rel.Tuples) {
			t.Fatalf("relation %q has %d tuples, want %d", want.Rel.Name, len(got.Rel.Tuples), len(want.Rel.Tuples))
		}
		for j := range want.Rel.Tuples {
			if got.Rel.Tuples[j].Compare(want.Rel.Tuples[j]) != 0 {
				t.Fatalf("relation %q tuple %d = %v, want %v", want.Rel.Name, j, got.Rel.Tuples[j], want.Rel.Tuples[j])
			}
		}
	}
	if len(f.Encs) != len(set.Encs) {
		t.Fatalf("%d encs, want %d", len(f.Encs), len(set.Encs))
	}
	for i, want := range set.Encs {
		got := f.Encs[i]
		if got.Key != want.Key {
			t.Fatalf("enc %d key %q, want %q", i, got.Key, want.Key)
		}
		if len(got.Inputs) != len(want.Inputs) || got.Inputs[0] != want.Inputs[0] {
			t.Fatalf("enc %d inputs %v, want %v", i, got.Inputs, want.Inputs)
		}
		wantT, gotT := tuplesOf(want.Enc), tuplesOf(got.Enc)
		if len(wantT) != len(gotT) {
			t.Fatalf("enc %d enumerates %d tuples, want %d", i, len(gotT), len(wantT))
		}
		for j := range wantT {
			if wantT[j].Compare(gotT[j]) != 0 {
				t.Fatalf("enc %d tuple %d = %v, want %v", i, j, gotT[j], wantT[j])
			}
		}
	}
}

func TestEncodeOpenBytesRoundTrip(t *testing.T) {
	set := testSet(t)
	buf, err := Encode(set)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mapped() {
		t.Fatal("OpenBytes claims to be mapped")
	}
	checkFile(t, set, f)
}

// TestWriteOpenRoundTrip exercises the real file path twice: the mmap fast
// path and the forced read-into-heap fallback must reconstruct identically.
func TestWriteOpenRoundTrip(t *testing.T) {
	set := testSet(t)
	path := filepath.Join(t.TempDir(), "snap.fdb")
	if err := Write(path, set); err != nil {
		t.Fatal(err)
	}
	for _, forceHeap := range []bool{false, true} {
		f, err := open(path, forceHeap)
		if err != nil {
			t.Fatalf("open(forceHeap=%v): %v", forceHeap, err)
		}
		checkFile(t, set, f)
		if err := f.Close(); err != nil {
			t.Fatalf("close(forceHeap=%v): %v", forceHeap, err)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := Encode(testSet(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(testSet(t))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two encodings of the same set differ")
	}
}

// TestOpenRefusesVersion1: a file in format version 1, which records no
// attribute kinds, is refused as malformed.
func TestOpenRefusesVersion1(t *testing.T) {
	buf, err := Encode(testSet(t))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf[8:], 1)
	binary.LittleEndian.PutUint64(buf[headerSize-8:], checksum(buf[:headerSize-8]))
	f, err := OpenBytes(buf)
	if f != nil || !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 image: file %v, err %v; want an ErrFormat naming version 1", f, err)
	}
}

// TestEncodeRefusesKindArity: a relation's kinds, when given, are one per
// attribute.
func TestEncodeRefusesKindArity(t *testing.T) {
	set := testSet(t)
	set.Rels[0].Kinds = set.Rels[0].Kinds[:1]
	if _, err := Encode(set); err == nil {
		t.Fatal("one kind for a two-attribute relation was encoded")
	}
}

// TestOpenRejectsCorrupt mirrors internal/wire's frame-codec rejection
// tests: every truncation and byte flip of a valid image must yield an
// error wrapping ErrFormat, and must never panic.
func TestOpenRejectsCorrupt(t *testing.T) {
	buf, err := Encode(testSet(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBytes(buf); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}

	reject := func(name string, img []byte) {
		t.Helper()
		f, err := OpenBytes(img)
		if err == nil {
			t.Errorf("%s: accepted", name)
			return
		}
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: error %v does not wrap ErrFormat", name, err)
		}
		if f != nil {
			t.Errorf("%s: non-nil file alongside error", name)
		}
	}

	reject("empty", nil)
	reject("short header", buf[:headerSize-1])
	for _, cut := range []int{headerSize, pageSize - 1, pageSize + 8, len(buf) - 1} {
		reject("truncated", append([]byte(nil), buf[:cut]...))
	}
	// Flip one byte at a sweep of positions inside the checksummed regions
	// (header, meta blob, the first relation's data section — page padding
	// between sections is deliberately uncovered). Whatever the byte
	// encodes, some checksum or bound must catch it.
	metaOff := binary.LittleEndian.Uint64(buf[24:])
	metaLen := binary.LittleEndian.Uint64(buf[32:])
	var poss []int
	for pos := 0; pos < headerSize; pos++ {
		poss = append(poss, pos)
	}
	for pos := pageSize; pos < pageSize+4*2*8; pos += 7 { // R: 4 rows × 2 cols × 8 bytes
		poss = append(poss, pos)
	}
	for pos := metaOff; pos < metaOff+metaLen; pos += 13 {
		poss = append(poss, int(pos))
	}
	for _, pos := range poss {
		img := append([]byte(nil), buf...)
		img[pos] ^= 0x5a
		reject(fmt.Sprintf("byte flip at %d", pos), img)
	}
	// Grow without updating the declared size.
	reject("appended garbage", append(append([]byte(nil), buf...), 0xff))
}
