package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// fuzzSeeds is one valid body per decoder under fuzz, the Spec drawn by the
// round-trip tests' randSpec, the reply shapes at DecodeRows' edges (a row
// of no columns, an empty cell, no rows), plus a whole frame. The checked-in corpus
// under testdata/fuzz/FuzzWireDecode adds more of the same and their
// hostile variants (truncations, padding, counts far beyond the body);
// plain `go test` replays it.
func fuzzSeeds() [][]byte {
	rows := EncodeRows(&Rows{Schema: []string{"a", "b"}, Rows: [][]string{{"1", "x"}, {"2", "y"}}})
	var frame bytes.Buffer
	if err := WriteFrame(&frame, Frame{Kind: RespOK, ID: 7, Body: rows}); err != nil {
		panic(err)
	}
	return [][]byte{
		EncodeSpec(randSpec(rand.New(rand.NewSource(3)))),
		EncodeExecReq(&ExecReq{Handle: 3, Snap: 5, MaxRows: 100, Args: []Arg{{Name: "x", Val: Int(-7)}, {Name: "s", Val: Str("q")}}}),
		EncodeWriteReq(&WriteReq{Rel: "R", KeyCols: 2, Rows: [][]Value{{Int(1), Str("a")}, {Int(2), Str("b")}}}),
		rows,
		EncodeRows(&Rows{Rows: [][]string{nil, nil}}),
		EncodeRows(&Rows{Schema: []string{"a", "b"}, Rows: [][]string{{"", "x"}, {"y", ""}}}),
		EncodeRows(&Rows{Schema: []string{"a"}}),
		frame.Bytes(),
	}
}

// fuzzFrameLimit keeps ReadFrame's allocation for a hostile length prefix
// small enough to fuzz fast.
const fuzzFrameLimit = 1 << 16

// FuzzWireDecode feeds arbitrary bytes to everything that parses bytes a
// peer controls: the four body decoders and the frame reader. The contract
// is FuzzStoreOpen's: never panic, and either an error or a value that
// survives re-encoding — encode it, decode that, and get the same value.
func FuzzWireDecode(f *testing.F) {
	for _, b := range fuzzSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if sp := reencodes(t, "Spec", b, DecodeSpec, EncodeSpec); sp != nil {
			// Turning a decoded spec into clauses may refuse it, never panic.
			_, _ = sp.Clauses()
		}
		reencodes(t, "ExecReq", b, DecodeExecReq, EncodeExecReq)
		reencodes(t, "WriteReq", b, DecodeWriteReq, EncodeWriteReq)
		reencodes(t, "Rows", b, DecodeRows, EncodeRows)
		reencodes(t, "Frame", b,
			func(b []byte) (*Frame, error) {
				fr, err := ReadFrame(bytes.NewReader(b), fuzzFrameLimit)
				return &fr, err
			},
			func(fr *Frame) []byte {
				var buf bytes.Buffer
				if err := WriteFrame(&buf, *fr); err != nil {
					t.Fatalf("accepted frame does not re-encode: %v", err)
				}
				return buf.Bytes()
			})
	})
}

// reencodes holds one decoder to the contract on b: when it accepts, the
// value must encode to bytes it decodes to the same value again. Returns the
// decoded value, nil when b was refused.
func reencodes[T any](t *testing.T, what string, b []byte, decode func([]byte) (*T, error), encode func(*T) []byte) *T {
	v, err := decode(b)
	if err != nil {
		return nil
	}
	again, err := decode(encode(v))
	if err != nil || !reflect.DeepEqual(v, again) {
		t.Fatalf("%s does not survive re-encoding: %v\n%+v\n%+v", what, err, v, again)
	}
	return v
}
