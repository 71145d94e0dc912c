// Package wire is the network front-end of the engine: a length-prefixed
// binary protocol over TCP with prepared-statement handles, pipelining
// (multiple in-flight requests per connection, responses tagged by request
// id), per-connection snapshot pinning, batched writes and a STATS verb,
// plus the Server that speaks it and the Client that drives it.
//
// Frame layout (all integers big-endian):
//
//	uint32  length of the remainder (1 .. MaxFrame)
//	uint8   kind: a request verb (client→server) or response kind
//	uint32  request id, echoed verbatim on the response
//	[]byte  kind-specific body (see proto.go)
//
// Responses carry RespOK or RespErr; requests and responses correlate only
// through the request id, so a connection may have any number of requests
// in flight and completions may arrive out of order.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame is the default cap on the size of one frame's payload (kind +
// id + body). Oversized length prefixes are rejected before any allocation,
// so a garbage or hostile peer cannot make the server reserve memory.
const MaxFrame = 16 << 20

// frameHeader is the fixed payload prefix: kind byte + request id.
const frameHeader = 1 + 4

// Request verbs (client → server).
const (
	VerbPing      = byte(0x01) // liveness probe; empty body
	VerbPrepare   = byte(0x02) // compile a query spec, return a statement handle
	VerbExec      = byte(0x03) // run a prepared statement (tuple or aggregate: the handle knows)
	VerbCloseStmt = byte(0x05) // drop a statement handle
	VerbSnapshot  = byte(0x06) // pin a snapshot for this connection
	VerbRelease   = byte(0x07) // release a pinned snapshot
	VerbInsert    = byte(0x08) // batch insert
	VerbDelete    = byte(0x09) // batch delete
	VerbUpsert    = byte(0x0A) // batch upsert (key-prefix displacement)
	VerbStats     = byte(0x0B) // server and engine metrics
)

// Response kinds (server → client).
const (
	RespOK  = byte(0x80)
	RespErr = byte(0x81)
)

// Frame is one decoded protocol frame.
type Frame struct {
	Kind byte
	ID   uint32
	Body []byte
}

// WriteFrame encodes f onto w in one Write call (callers wrap w in a
// bufio.Writer and flush per response; the single Write keeps frames whole
// even on an unbuffered writer).
func WriteFrame(w io.Writer, f Frame) error {
	n := frameHeader + len(f.Body)
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", n, MaxFrame)
	}
	buf := make([]byte, 4+n)
	binary.BigEndian.PutUint32(buf[0:], uint32(n))
	buf[4] = f.Kind
	binary.BigEndian.PutUint32(buf[5:], f.ID)
	copy(buf[4+frameHeader:], f.Body)
	_, err := w.Write(buf)
	return err
}

// ReadFrame decodes one frame from r, rejecting length prefixes shorter
// than the fixed header or larger than max (max <= 0 means MaxFrame). A
// clean EOF before any byte returns io.EOF; a connection cut mid-frame
// returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, max int) (Frame, error) {
	if max <= 0 {
		max = MaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < frameHeader {
		return Frame{}, fmt.Errorf("wire: frame payload of %d bytes is shorter than the %d-byte header", n, frameHeader)
	}
	if n > max {
		return Frame{}, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{Kind: buf[0], ID: binary.BigEndian.Uint32(buf[1:5]), Body: buf[frameHeader:]}, nil
}
