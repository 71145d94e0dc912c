package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/fbuild"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// fuzzSet is testSet without the *testing.T: the baseline image the fuzzer
// and the corpus generator mutate.
func fuzzSet() *Set {
	r := relation.New("R", relation.Schema{"a", "b"})
	for _, tp := range [][2]relation.Value{{1, 10}, {1, 20}, {2, 10}, {3, 30}} {
		r.Append(tp[0], tp[1])
	}
	tr := ftree.New(
		[]*ftree.Node{ftree.NewNode("a").Add(ftree.NewNode("b"))},
		[]relation.AttrSet{relation.NewAttrSet("a", "b")},
	)
	enc, err := fbuild.BuildEnc([]*relation.Relation{r}, tr)
	if err != nil {
		panic(err)
	}
	return &Set{
		Ver:  7,
		Dict: []string{"apple", "pear"},
		Rels: []Relation{{Ver: 5, Rel: r, Kinds: []relation.Kind{relation.KindInt, relation.KindStr}}},
		Encs: []Enc{{Key: "q1", Inputs: []Input{{Name: "R", Ver: 5}}, Enc: enc}},
	}
}

// hostileVariants derives structured corruptions of a valid image — the
// interesting corners a blind bit-flipper takes long to find. Each is both
// a fuzz seed and a checked-in corpus entry.
func hostileVariants(valid []byte) map[string][]byte {
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	fixHeaderCRC := func(b []byte) {
		binary.LittleEndian.PutUint64(b[headerSize-8:], checksum(b[:headerSize-8]))
	}
	return map[string][]byte{
		"valid":            append([]byte(nil), valid...),
		"empty":            {},
		"short-header":     valid[:headerSize/2],
		"bad-magic":        mut(func(b []byte) { b[0] = 'X' }),
		"truncated-data":   valid[:pageSize+1],
		"truncated-meta":   valid[:len(valid)-3],
		"appended-garbage": append(append([]byte(nil), valid...), 0xde, 0xad),
		"bad-version": mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 99)
			fixHeaderCRC(b)
		}),
		"bad-flags": mut(func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:], 0)
			fixHeaderCRC(b)
		}),
		"meta-off-oob": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:], uint64(len(b))+pageSize)
			fixHeaderCRC(b)
		}),
		"meta-len-huge": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[32:], 1<<40)
			fixHeaderCRC(b)
		}),
		"flipped-data": mut(func(b []byte) { b[pageSize] ^= 0xff }),
		"flipped-meta": mut(func(b []byte) {
			off := binary.LittleEndian.Uint64(b[24:])
			b[off+4] ^= 0xff
		}),
	}
}

// FuzzStoreOpen feeds arbitrary bytes to the snapshot reader. The contract
// under fuzzing is exactly the hard acceptance bar: a malformed input must
// yield an error wrapping ErrFormat — never a panic, never an out-of-bounds
// view — and an accepted input must reconstruct relations and encs that can
// be walked end to end safely.
func FuzzStoreOpen(f *testing.F) {
	valid, err := Encode(fuzzSet())
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range hostileVariants(valid) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		file, err := OpenBytes(b)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error does not wrap ErrFormat: %v", err)
			}
			return
		}
		// Accepted: everything reconstructed must be safely walkable.
		for _, sr := range file.Rels {
			for _, tp := range sr.Rel.Tuples {
				for range tp {
				}
			}
		}
		for _, se := range file.Encs {
			se.Enc.Count()
			se.Enc.Enumerate(func(relation.Tuple) bool { return true })
		}
	})
}

// TestFuzzCorpusCheckedIn pins the corpus under testdata/fuzz/FuzzStoreOpen
// (the directory `go test -fuzz` also seeds from): every entry must decode
// as a corpus file and uphold the no-panic/typed-error contract. Regenerate
// with STORE_WRITE_CORPUS=1 go test ./internal/store -run TestFuzzCorpusCheckedIn.
func TestFuzzCorpusCheckedIn(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStoreOpen")
	valid, err := Encode(fuzzSet())
	if err != nil {
		t.Fatal(err)
	}
	variants := hostileVariants(valid)
	if os.Getenv("STORE_WRITE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range variants {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b)))
			if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < len(variants) {
		t.Fatalf("corpus has %d entries, want at least %d (regenerate with STORE_WRITE_CORPUS=1)",
			len(entries), len(variants))
	}
	for _, ent := range entries {
		body, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var header, quoted string
		if _, err := fmt.Sscanf(string(body), "%s test fuzz v1\n", &header); err != nil || header != "go" {
			t.Fatalf("%s: not a go fuzz corpus file", ent.Name())
		}
		start, end := 0, len(body)
		for i := 0; i < len(body); i++ {
			if body[i] == '(' {
				start = i + 1
				break
			}
		}
		for i := len(body) - 1; i >= 0; i-- {
			if body[i] == ')' {
				end = i
				break
			}
		}
		quoted = string(body[start:end])
		raw, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: cannot unquote payload: %v", ent.Name(), err)
		}
		if f, err := OpenBytes([]byte(raw)); err != nil && !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: error does not wrap ErrFormat: %v", ent.Name(), err)
		} else if err == nil && f == nil {
			t.Fatalf("%s: nil file without error", ent.Name())
		}
	}
}
