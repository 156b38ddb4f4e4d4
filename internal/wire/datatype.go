package wire

// Datatype I/O request bodies (DESIGN.md §6). Unlike list I/O — where
// the client flattens the access pattern and ships explicit region
// lists, 64 per request — a datatype request carries the *pattern
// itself*: the encoded constructor tree (internal/datatype codec), a
// repetition count, a base offset, and the striping geometry. The I/O
// daemon evaluates the pattern, intersects it with its own stripe, and
// streams the data, so the number of requests scales with transfer
// size over the response window, never with the number of contiguous
// fragments.
//
// Windowing: DataPos names a position in the pattern's data stream
// (the concatenation of the pattern's bytes in walk order, across all
// servers) and Want the number of *receiver-owned* bytes to transfer
// starting from the first receiver-owned byte at or after DataPos.
// The client cuts each server's share into Want-sized windows and
// pipelines them; the daemon's evaluation seeks to DataPos in O(tree
// depth) and walks only until Want bytes have moved.

import (
	"fmt"

	"pvfs/internal/datatype"
	"pvfs/internal/striping"
)

// MaxTypeEncLen caps the encoded-datatype field accepted in a request
// body (the datatype codec's own limit).
const MaxTypeEncLen = datatype.MaxEncodedType

// ReadDatatypeReq asks an I/O daemon for its share of a datatype
// pattern: Count repetitions of the encoded type at Base, windowed by
// (DataPos, Want). The response body is exactly the receiver's bytes
// in pattern-stream order.
type ReadDatatypeReq struct {
	Base     int64
	Count    int64
	DataPos  int64
	Want     int64
	Striping striping.Config
	RelIndex int    // which relative server the receiver is
	TypeEnc  []byte // encoded constructor tree (datatype.Encode)
}

// fixedDatatypeReqSize is the encoded size of the fixed fields.
const fixedDatatypeReqSize = 8*4 + /* striping */ 4 + 4 + 8 + /* rel */ 4 + /* enc len */ 4

// DatatypeReqSize returns the marshalled size of a request carrying an
// encLen-byte type encoding (excluding write payload), for sizing
// pooled buffers.
func DatatypeReqSize(encLen int) int { return fixedDatatypeReqSize + encLen }

// AppendTo appends the marshalled request to dst and returns the
// extended slice.
func (m *ReadDatatypeReq) AppendTo(dst []byte) []byte {
	e := encoder{buf: dst}
	e.i64(m.Base)
	e.i64(m.Count)
	e.i64(m.DataPos)
	e.i64(m.Want)
	e.u32(uint32(m.Striping.Base))
	e.u32(uint32(m.Striping.PCount))
	e.i64(m.Striping.StripeSize)
	e.u32(uint32(m.RelIndex))
	e.u32(uint32(len(m.TypeEnc)))
	e.bytes(m.TypeEnc)
	return e.buf
}

func (m *ReadDatatypeReq) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, DatatypeReqSize(len(m.TypeEnc))))
}

// unmarshalPrefix decodes the fixed fields plus TypeEnc, leaving any
// trailing bytes (the write payload) in the decoder.
func (m *ReadDatatypeReq) unmarshalPrefix(d *decoder) error {
	m.Base = d.i64()
	m.Count = d.i64()
	m.DataPos = d.i64()
	m.Want = d.i64()
	m.Striping.Base = int(d.u32())
	m.Striping.PCount = int(d.u32())
	m.Striping.StripeSize = d.i64()
	m.RelIndex = int(d.u32())
	n := d.u32()
	if d.err != nil {
		return d.err
	}
	if n > MaxTypeEncLen {
		return fmt.Errorf("wire: %d-byte type encoding exceeds limit", n)
	}
	if uint32(len(d.buf)) < n {
		return ErrShortBody
	}
	m.TypeEnc = d.buf[:n]
	d.buf = d.buf[n:]
	if m.Base < 0 || m.Count < 0 || m.DataPos < 0 || m.Want < 0 || m.Want > MaxBodyLen {
		return fmt.Errorf("wire: invalid datatype request shape (base %d count %d pos %d want %d)",
			m.Base, m.Count, m.DataPos, m.Want)
	}
	return nil
}

func (m *ReadDatatypeReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	if err := m.unmarshalPrefix(&d); err != nil {
		return err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after read-datatype request", len(d.buf))
	}
	return nil
}

// WriteDatatypeReq is the write-side body: the same pattern window plus
// the window's payload — the receiver's bytes in pattern-stream order.
// len(Data) must equal Want.
type WriteDatatypeReq struct {
	ReadDatatypeReq
	Data []byte
}

// AppendTo appends the fixed fields and type encoding to dst; callers
// gather the payload directly behind it (memio.StreamMap.AppendOut),
// avoiding a staging copy.
func (m *WriteDatatypeReq) AppendTo(dst []byte) []byte {
	dst = m.ReadDatatypeReq.AppendTo(dst)
	return append(dst, m.Data...)
}

func (m *WriteDatatypeReq) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, DatatypeReqSize(len(m.TypeEnc))+len(m.Data)))
}

func (m *WriteDatatypeReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	if err := m.unmarshalPrefix(&d); err != nil {
		return err
	}
	m.Data = d.rest()
	if int64(len(m.Data)) != m.Want {
		return fmt.Errorf("wire: datatype write carries %d bytes, want field says %d", len(m.Data), m.Want)
	}
	return nil
}
