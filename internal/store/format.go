// Package store implements the zero-copy persistent snapshot format: a
// versioned, checksummed, page-aligned file layout that serialises a
// relation set — dictionary, schemas, tuple data at a consistent version
// cut, and (optionally) pre-built frep.Enc arenas — and opens by mmap with
// zero-copy reconstruction. On open, value columns, union-offset columns
// and tuple storage are unsafe.Slice views directly over the mapped region
// (falling back to a heap read when mmap is unavailable, and to an explicit
// decode on big-endian hosts), so cold open costs O(header + meta) plus the
// pages a query walk actually touches, instead of a full parse + build.
//
// File layout (all fixed-width fields little-endian):
//
//	[0, 64)      header: magic "FDBSNAP1", format version, flags, database
//	             write version, meta (offset, length, crc64), total file
//	             size, header crc64
//	[4096, ...)  data sections, each page-aligned: per-relation row-major
//	             tuple blocks (int64), per-enc value columns (int64) and
//	             union-offset columns (int32)
//	[metaOff)    meta blob (8-aligned, after the last data section):
//	             dictionary strings; per-relation name, delta-store version,
//	             schema with each attribute's kind (format version 2), row
//	             count and data-section ref; per-enc data
//	             holder key, serialised f-tree, input (name, version)
//	             list, pre-order node spans, and value/offset section refs
//
// Every section carries its own crc64 (ECMA) recorded in the meta blob; the
// meta blob and header carry theirs in the header. The reader is written to
// the same discipline as internal/wire's frame codec: every count, length,
// offset and alignment is validated against the file bounds before any
// pointer is formed, hostile counts are capped before allocation, and every
// malformed input yields an error wrapping ErrFormat — never a panic.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"unsafe"
)

// Format geometry and identification.
const (
	magic      = "FDBSNAP1"
	version    = 2
	headerSize = 64
	pageSize   = 4096

	// flagLittleEndian marks the data sections as little-endian. The format
	// is defined little-endian, so the flag is always set on write; a reader
	// seeing it clear (or any unknown flag) must refuse the file rather than
	// misinterpret raw column bytes.
	flagLittleEndian = 1 << 0
)

// Hostile-count caps: decoded counts are bounded before any allocation so a
// small corrupted file cannot demand gigabytes. Counts that imply section
// bytes are additionally bounded by the file size itself.
const (
	maxStringLen = 1 << 20 // one dictionary string / attribute / name
	maxDictLen   = 1 << 24 // dictionary entries
	maxRelations = 1 << 16
	maxEncs      = 1 << 16
	maxArity     = 1 << 12 // attributes per relation schema
	maxNodes     = 1 << 20 // f-tree nodes / enc spans
	maxTreeDepth = 1 << 12 // recursion guard for nested tree decoding
	maxMetaLen   = 1 << 30
)

// ErrFormat is wrapped by every error the reader returns for a malformed,
// truncated or corrupted snapshot file, so callers can distinguish hostile
// input (errors.Is(err, ErrFormat)) from I/O failures.
var ErrFormat = errors.New("malformed snapshot file")

// badf builds a reader error: store-prefixed, ErrFormat-wrapped.
func badf(format string, args ...any) error {
	return fmt.Errorf("store: "+format+": %w", append(args, ErrFormat)...)
}

var crcTable = crc64.MakeTable(crc64.ECMA)

func checksum(b []byte) uint64 { return crc64.Checksum(b, crcTable) }

// hostLittle reports whether the running host is little-endian; only then
// can column views alias file bytes directly.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// encoder appends fixed-width little-endian fields to a buffer. It is used
// for the meta blob and the header, not for bulk column data.
type encoder struct {
	b []byte
}

func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// decoder is a bounds-checked cursor over the meta blob. Every read
// validates the remaining length first and fails with an ErrFormat-wrapped
// error on truncation; count reads additionally cap the value and require
// the remaining bytes to plausibly hold that many elements.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

func (d *decoder) u32(what string) (uint32, error) {
	if d.remaining() < 4 {
		return 0, badf("truncated meta reading %s", what)
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64(what string) (uint64, error) {
	if d.remaining() < 8 {
		return 0, badf("truncated meta reading %s", what)
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) i32(what string) (int32, error) {
	v, err := d.u32(what)
	return int32(v), err
}

func (d *decoder) str(what string) (string, error) {
	n, err := d.u32(what + " length")
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", badf("%s length %d exceeds cap %d", what, n, maxStringLen)
	}
	if d.remaining() < int(n) {
		return "", badf("truncated meta reading %s", what)
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// count reads an element count, capping it at max and requiring the rest of
// the meta blob to hold at least minBytesEach bytes per element, so hostile
// counts can neither drive huge allocations nor long decode loops.
func (d *decoder) count(what string, max, minBytesEach int) (int, error) {
	v, err := d.u32(what + " count")
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n > max {
		return 0, badf("%s count %d exceeds cap %d", what, n, max)
	}
	if minBytesEach > 0 && n > d.remaining()/minBytesEach {
		return 0, badf("%s count %d exceeds remaining meta bytes", what, n)
	}
	return n, nil
}

func (d *decoder) done() error {
	if d.remaining() != 0 {
		return badf("%d trailing bytes after meta", d.remaining())
	}
	return nil
}
