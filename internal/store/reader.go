package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"

	"repro/internal/frep"
	"repro/internal/relation"
)

// File is an opened snapshot. Its relations' tuples and its encs' arenas
// are views over data — possibly a read-only memory mapping — so they stay
// valid exactly as long as the File is not closed. Databases opened from a
// snapshot therefore keep the File referenced for their whole lifetime and
// never call Close.
type File struct {
	Ver    uint64
	Dict   []string
	Rels   []Relation
	Encs   []Enc
	data   []byte
	mapped bool
}

// Mapped reports whether the file is served by mmap (true) or was read into
// the heap (the fallback when mapping is unavailable).
func (f *File) Mapped() bool { return f.mapped }

// Close releases the backing storage (munmap when mapped). The relations
// and encs reconstructed from f alias that storage and must not be used
// afterwards.
func (f *File) Close() error {
	data, mapped := f.data, f.mapped
	f.data, f.mapped, f.Rels, f.Encs = nil, false, nil, nil
	if mapped && data != nil {
		return unmapFile(data)
	}
	return nil
}

// Open opens a snapshot file, preferring mmap (zero-copy: columns alias the
// mapping) and falling back to a plain read into the heap when mapping is
// unavailable on this platform or fails. All validation — header, section
// checksums, bounds, structural invariants — happens before the File is
// returned.
func Open(path string) (*File, error) {
	return open(path, false)
}

func open(path string, forceHeap bool) (*File, error) {
	if !forceHeap {
		if data, err := mapFile(path); err == nil {
			f, perr := parse(data, true)
			if perr != nil {
				_ = unmapFile(data)
				return nil, perr
			}
			return f, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	return parse(data, false)
}

// OpenBytes parses a snapshot image from a caller-owned buffer (used by the
// fuzzer and by tests); the returned File aliases b.
func OpenBytes(b []byte) (*File, error) {
	return parse(b, false)
}

// parse validates and reconstructs a snapshot image. It never panics on
// hostile input: every offset, length, count and checksum is verified
// before any slice view is formed, and the frep/ftree structural validators
// run before an Enc is handed out.
func parse(data []byte, mapped bool) (*File, error) {
	if len(data) < headerSize {
		return nil, badf("file of %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, badf("bad magic %q", data[:8])
	}
	if got, want := checksum(data[:headerSize-8]), binary.LittleEndian.Uint64(data[headerSize-8:]); got != want {
		return nil, badf("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != version {
		return nil, badf("unsupported format version %d (want %d)", v, version)
	}
	if flags := binary.LittleEndian.Uint32(data[12:]); flags != flagLittleEndian {
		return nil, badf("unsupported flags %#x", flags)
	}
	f := &File{Ver: binary.LittleEndian.Uint64(data[16:]), data: data, mapped: mapped}
	metaOff := binary.LittleEndian.Uint64(data[24:])
	metaLen := binary.LittleEndian.Uint64(data[32:])
	metaCRC := binary.LittleEndian.Uint64(data[40:])
	if size := binary.LittleEndian.Uint64(data[48:]); size != uint64(len(data)) {
		return nil, badf("header declares %d bytes, file has %d", size, len(data))
	}
	if metaLen > maxMetaLen || metaOff < headerSize ||
		metaOff > uint64(len(data)) || metaLen > uint64(len(data))-metaOff {
		return nil, badf("meta blob [%d, +%d) outside file of %d bytes", metaOff, metaLen, len(data))
	}
	meta := data[metaOff : metaOff+metaLen]
	if checksum(meta) != metaCRC {
		return nil, badf("meta checksum mismatch")
	}

	d := &decoder{b: meta}
	nDict, err := d.count("dictionary", maxDictLen, 4)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, nDict)
	f.Dict = make([]string, nDict)
	for i := range f.Dict {
		s, err := d.str("dictionary string")
		if err != nil {
			return nil, err
		}
		if seen[s] {
			return nil, badf("duplicate dictionary string %q", s)
		}
		seen[s] = true
		f.Dict[i] = s
	}

	nRels, err := d.count("relation", maxRelations, 4)
	if err != nil {
		return nil, err
	}
	relNames := make(map[string]bool, nRels)
	f.Rels = make([]Relation, 0, nRels)
	for i := 0; i < nRels; i++ {
		sr, err := parseRelation(d, data)
		if err != nil {
			return nil, err
		}
		if relNames[sr.Rel.Name] {
			return nil, badf("duplicate relation %q", sr.Rel.Name)
		}
		relNames[sr.Rel.Name] = true
		f.Rels = append(f.Rels, sr)
	}

	nEncs, err := d.count("enc", maxEncs, 4)
	if err != nil {
		return nil, err
	}
	encKeys := make(map[string]bool, nEncs)
	f.Encs = make([]Enc, 0, nEncs)
	for i := 0; i < nEncs; i++ {
		se, err := parseEnc(d, data, relNames)
		if err != nil {
			return nil, err
		}
		if encKeys[se.Key] {
			return nil, badf("duplicate enc key %q", se.Key)
		}
		encKeys[se.Key] = true
		f.Encs = append(f.Encs, se)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// section validates one data-section reference — alignment, bounds,
// checksum — and returns the raw bytes. n is the element count, elem the
// element width in bytes.
func section(data []byte, what string, off, n uint64, elem int, crc uint64) ([]byte, error) {
	if off%8 != 0 {
		return nil, badf("%s section at offset %d is not 8-byte aligned", what, off)
	}
	if n > uint64(len(data))/uint64(elem) {
		return nil, badf("%s section of %d elements exceeds file size", what, n)
	}
	bytes := n * uint64(elem)
	if off < headerSize || off > uint64(len(data)) || bytes > uint64(len(data))-off {
		return nil, badf("%s section [%d, +%d) outside file of %d bytes", what, off, bytes, len(data))
	}
	sec := data[off : off+bytes]
	if checksum(sec) != crc {
		return nil, badf("%s section checksum mismatch", what)
	}
	return sec, nil
}

// valsView returns sec as a value column. On a little-endian host with an
// 8-aligned base the view aliases sec (zero-copy, the mmap fast path);
// otherwise it decodes into a fresh slice.
func valsView(sec []byte, n int) []relation.Value {
	if n == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&sec[0]))%8 == 0 {
		return unsafe.Slice((*relation.Value)(unsafe.Pointer(&sec[0])), n)
	}
	out := make([]relation.Value, n)
	for i := range out {
		out[i] = relation.Value(binary.LittleEndian.Uint64(sec[i*8:]))
	}
	return out
}

// offsView is valsView for int32 union-offset columns.
func offsView(sec []byte, n int) []int32 {
	if n == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&sec[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&sec[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(sec[i*4:]))
	}
	return out
}

func parseRelation(d *decoder, data []byte) (Relation, error) {
	name, err := d.str("relation name")
	if err != nil {
		return Relation{}, err
	}
	if name == "" {
		return Relation{}, badf("empty relation name")
	}
	ver, err := d.u64("relation version")
	if err != nil {
		return Relation{}, err
	}
	arity, err := d.count("relation "+name+" schema", maxArity, 8)
	if err != nil {
		return Relation{}, err
	}
	if arity == 0 {
		return Relation{}, badf("relation %q has no attributes", name)
	}
	schema := make(relation.Schema, arity)
	kinds := make([]relation.Kind, arity)
	for i := range schema {
		a, err := d.str("relation " + name + " attribute")
		if err != nil {
			return Relation{}, err
		}
		schema[i] = relation.Attribute(a)
		k, err := d.u32("relation " + name + " attribute kind")
		if err != nil {
			return Relation{}, err
		}
		if k > uint32(relation.KindStr) {
			return Relation{}, badf("relation %q attribute %q has unknown kind %d", name, a, k)
		}
		kinds[i] = relation.Kind(k)
	}
	if err := schema.Validate(); err != nil {
		return Relation{}, badf("relation %q: %v", name, err)
	}
	rows, err := d.u64("relation " + name + " row count")
	if err != nil {
		return Relation{}, err
	}
	off, err := d.u64("relation " + name + " data offset")
	if err != nil {
		return Relation{}, err
	}
	crc, err := d.u64("relation " + name + " data checksum")
	if err != nil {
		return Relation{}, err
	}
	if rows > uint64(len(data))/uint64(arity*8) {
		return Relation{}, badf("relation %q declares %d rows, more than the file can hold", name, rows)
	}
	sec, err := section(data, "relation "+name, off, rows*uint64(arity), 8, crc)
	if err != nil {
		return Relation{}, err
	}
	vals := valsView(sec, int(rows)*arity)
	rel := relation.New(name, schema)
	rel.Tuples = make([]relation.Tuple, rows)
	for i := range rel.Tuples {
		rel.Tuples[i] = relation.Tuple(vals[i*arity : (i+1)*arity : (i+1)*arity])
	}
	return Relation{Ver: ver, Rel: rel, Kinds: kinds}, nil
}

func parseEnc(d *decoder, data []byte, relNames map[string]bool) (Enc, error) {
	key, err := d.str("enc key")
	if err != nil {
		return Enc{}, err
	}
	tree, err := decodeTree(d)
	if err != nil {
		return Enc{}, err
	}
	nInputs, err := d.count("enc input", maxRelations, 12)
	if err != nil {
		return Enc{}, err
	}
	inputs := make([]Input, nInputs)
	for i := range inputs {
		if inputs[i].Name, err = d.str("enc input name"); err != nil {
			return Enc{}, err
		}
		if !relNames[inputs[i].Name] {
			return Enc{}, badf("enc input %q names no stored relation", inputs[i].Name)
		}
		if inputs[i].Ver, err = d.u64("enc input version"); err != nil {
			return Enc{}, err
		}
	}
	nSpans, err := d.count("enc span", maxNodes, 16)
	if err != nil {
		return Enc{}, err
	}
	spans := make([]frep.NodeSpan, nSpans)
	for i := range spans {
		if spans[i].ValLo, err = d.i32("enc span"); err != nil {
			return Enc{}, err
		}
		if spans[i].ValHi, err = d.i32("enc span"); err != nil {
			return Enc{}, err
		}
		if spans[i].OffLo, err = d.i32("enc span"); err != nil {
			return Enc{}, err
		}
		if spans[i].OffHi, err = d.i32("enc span"); err != nil {
			return Enc{}, err
		}
	}
	valsOff, err := d.u64("enc value-column offset")
	if err != nil {
		return Enc{}, err
	}
	valsN, err := d.u64("enc value-column length")
	if err != nil {
		return Enc{}, err
	}
	valsCRC, err := d.u64("enc value-column checksum")
	if err != nil {
		return Enc{}, err
	}
	offsOff, err := d.u64("enc offset-column offset")
	if err != nil {
		return Enc{}, err
	}
	offsN, err := d.u64("enc offset-column length")
	if err != nil {
		return Enc{}, err
	}
	offsCRC, err := d.u64("enc offset-column checksum")
	if err != nil {
		return Enc{}, err
	}
	valsSec, err := section(data, "enc values", valsOff, valsN, 8, valsCRC)
	if err != nil {
		return Enc{}, err
	}
	offsSec, err := section(data, "enc offsets", offsOff, offsN, 4, offsCRC)
	if err != nil {
		return Enc{}, err
	}
	arena := frep.Arena{Vals: valsView(valsSec, int(valsN)), Offs: offsView(offsSec, int(offsN))}
	enc, err := frep.AdoptEnc(tree, arena, spans)
	if err != nil {
		return Enc{}, badf("enc %q: %v", key, err)
	}
	return Enc{Key: key, Inputs: inputs, Enc: enc}, nil
}
