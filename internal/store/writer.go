package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/frep"
	"repro/internal/relation"
)

// Relation is one persisted relation: its tuples, the delta-store version
// the snapshot cut it at, and each attribute's kind (nil: none fixed).
type Relation struct {
	Ver   uint64
	Rel   *relation.Relation
	Kinds []relation.Kind
}

// Enc is one persisted encoded representation: the key of the data holder
// that memoised it, the inputs it was built from with the version that
// build reflected, and the encoding itself. A reopened database adopts the
// Enc only for a holder of the same key, and only while every input is
// still at its recorded version.
type Enc struct {
	Key    string
	Inputs []Input
	Enc    *frep.Enc
}

// Input is a (relation name, delta-store version) pair.
type Input struct {
	Name string
	Ver  uint64
}

// Set is the content of a snapshot: the database write version it was cut
// at, the dictionary's code table, every relation, and any pre-built
// encoded representations worth persisting alongside the data.
type Set struct {
	Ver  uint64
	Dict []string
	Rels []Relation
	Encs []Enc
}

// align rounds off up to the next multiple of to (a power of two).
func align(off, to uint64) uint64 { return (off + to - 1) &^ (to - 1) }

// Encode serialises s into the snapshot format in memory. Callers that want
// the file on disk should use Write; Encode exists for tests and for
// building the fuzz corpus.
func Encode(s *Set) ([]byte, error) {
	// Lay out the page-aligned data sections first; the meta blob follows
	// the last section so its size does not shift the section offsets.
	type section struct {
		off   uint64
		bytes uint64
	}
	off := uint64(pageSize)
	place := func(bytes uint64) section {
		sec := section{off: off, bytes: bytes}
		off = align(off+bytes, pageSize)
		return sec
	}

	relSecs := make([]section, len(s.Rels))
	for i, sr := range s.Rels {
		if sr.Rel == nil {
			return nil, fmt.Errorf("store: relation %d is nil", i)
		}
		if sr.Rel.Name == "" {
			return nil, fmt.Errorf("store: relation %d has no name", i)
		}
		if err := sr.Rel.Schema.Validate(); err != nil {
			return nil, fmt.Errorf("store: relation %q: %v", sr.Rel.Name, err)
		}
		arity := len(sr.Rel.Schema)
		if arity == 0 || arity > maxArity {
			return nil, fmt.Errorf("store: relation %q arity %d out of range", sr.Rel.Name, arity)
		}
		if sr.Kinds != nil && len(sr.Kinds) != arity {
			return nil, fmt.Errorf("store: relation %q has %d kinds for arity %d", sr.Rel.Name, len(sr.Kinds), arity)
		}
		for _, tp := range sr.Rel.Tuples {
			if len(tp) != arity {
				return nil, fmt.Errorf("store: relation %q tuple arity %d != schema arity %d",
					sr.Rel.Name, len(tp), arity)
			}
		}
		relSecs[i] = place(uint64(len(sr.Rel.Tuples)) * uint64(arity) * 8)
	}
	type encSecs struct {
		vals, offs section
	}
	eSecs := make([]encSecs, len(s.Encs))
	arenas := make([]frep.Arena, len(s.Encs))
	spanss := make([][]frep.NodeSpan, len(s.Encs))
	for i, se := range s.Encs {
		if se.Enc == nil {
			return nil, fmt.Errorf("store: enc %q is nil", se.Key)
		}
		arenas[i], spanss[i] = se.Enc.Export()
		eSecs[i].vals = place(uint64(len(arenas[i].Vals)) * 8)
		eSecs[i].offs = place(uint64(len(arenas[i].Offs)) * 4)
	}

	metaOff := align(off, 8)
	buf := make([]byte, metaOff)

	// Fill the data sections and compute their checksums.
	secCRC := func(sec section) uint64 { return checksum(buf[sec.off : sec.off+sec.bytes]) }
	for i, sr := range s.Rels {
		arity := len(sr.Rel.Schema)
		b := buf[relSecs[i].off:]
		for r, tp := range sr.Rel.Tuples {
			for c, v := range tp {
				binary.LittleEndian.PutUint64(b[(r*arity+c)*8:], uint64(v))
			}
		}
	}
	for i := range s.Encs {
		b := buf[eSecs[i].vals.off:]
		for j, v := range arenas[i].Vals {
			binary.LittleEndian.PutUint64(b[j*8:], uint64(v))
		}
		b = buf[eSecs[i].offs.off:]
		for j, v := range arenas[i].Offs {
			binary.LittleEndian.PutUint32(b[j*4:], uint32(v))
		}
	}

	// Meta blob: dictionary, relations, encs — with each section's
	// placement and checksum.
	m := &encoder{}
	m.u32(uint32(len(s.Dict)))
	for _, str := range s.Dict {
		if len(str) > maxStringLen {
			return nil, fmt.Errorf("store: dictionary string of %d bytes exceeds cap", len(str))
		}
		m.str(str)
	}
	m.u32(uint32(len(s.Rels)))
	for i, sr := range s.Rels {
		m.str(sr.Rel.Name)
		m.u64(sr.Ver)
		m.u32(uint32(len(sr.Rel.Schema)))
		for j, a := range sr.Rel.Schema {
			m.str(string(a))
			k := relation.KindNone
			if sr.Kinds != nil {
				k = sr.Kinds[j]
			}
			m.u32(uint32(k))
		}
		m.u64(uint64(len(sr.Rel.Tuples)))
		m.u64(relSecs[i].off)
		m.u64(secCRC(relSecs[i]))
	}
	m.u32(uint32(len(s.Encs)))
	for i, se := range s.Encs {
		m.str(se.Key)
		encodeTree(m, se.Enc.Tree)
		m.u32(uint32(len(se.Inputs)))
		for _, in := range se.Inputs {
			m.str(in.Name)
			m.u64(in.Ver)
		}
		spans := spanss[i]
		m.u32(uint32(len(spans)))
		for _, sp := range spans {
			m.i32(sp.ValLo)
			m.i32(sp.ValHi)
			m.i32(sp.OffLo)
			m.i32(sp.OffHi)
		}
		m.u64(eSecs[i].vals.off)
		m.u64(uint64(len(arenas[i].Vals)))
		m.u64(secCRC(eSecs[i].vals))
		m.u64(eSecs[i].offs.off)
		m.u64(uint64(len(arenas[i].Offs)))
		m.u64(secCRC(eSecs[i].offs))
	}

	buf = append(buf, m.b...)

	// Header last: it records the meta placement and checksums.
	h := &encoder{b: buf[:0:headerSize]}
	h.b = append(h.b, magic...)
	h.u32(version)
	h.u32(flagLittleEndian)
	h.u64(s.Ver)
	h.u64(metaOff)
	h.u64(uint64(len(m.b)))
	h.u64(checksum(m.b))
	h.u64(uint64(len(buf)))
	h.u64(checksum(h.b))
	return buf, nil
}

// Write atomically serialises s to path: the bytes land in a temporary file
// in the same directory, are fsynced, and replace path by rename, so a
// crash mid-save can never leave a half-written snapshot under the final
// name.
func Write(path string, s *Set) error {
	buf, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: create temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	return nil
}
