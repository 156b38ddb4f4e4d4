// Package wire defines the binary protocol spoken between PVFS clients,
// the manager daemon, and the I/O daemons.
//
// The protocol mirrors the structure described in the paper (§2, §3.3):
// fixed-size request headers, with list I/O requests carrying a
// variable-sized trailing data section holding up to MaxRegionsPerRequest
// file offset/length pairs. The 64-region limit was chosen by the
// authors so a request plus its trailing data fit a single 1500-byte
// Ethernet frame; FrameBudget documents that arithmetic.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"pvfs/internal/ioseg"
)

// Protocol constants.
const (
	// Magic identifies PVFS protocol messages ("PVFS").
	Magic = 0x50564653
	// Version of the wire protocol.
	Version = 1

	// MaxRegionsPerRequest is the trailing-data limit from the paper:
	// at most 64 contiguous file regions per list I/O request, so the
	// request and its trailing data travel in one Ethernet frame.
	MaxRegionsPerRequest = 64

	// EthernetMTU and related values document the frame budget the
	// 64-region limit was derived from.
	EthernetMTU    = 1500
	ipTCPOverhead  = 52 // IP (20) + TCP (20) + options (12)
	EthernetMSS    = EthernetMTU - ipTCPOverhead
	regionDescSize = 16 // offset int64 + length int64

	// HeaderSize is the fixed request/response header length in bytes.
	HeaderSize = 28

	// MaxBodyLen bounds a single message body (headers + trailing data
	// + payload) to keep a malicious or corrupt peer from forcing huge
	// allocations. Large transfers are chunked above this layer.
	MaxBodyLen = 64 << 20
)

// MsgType enumerates request and response message types.
type MsgType uint16

// Request/response types. Responses reuse the request type with the
// response bit set.
const (
	TInvalid MsgType = iota
	// Manager operations.
	TCreate
	TOpen
	TStat
	TRemove
	TListDir
	TSetSize
	// I/O daemon operations.
	TRead
	TWrite
	TReadList
	TWriteList
	_ // 11, 12: retired strided family; reserved so later types keep their wire values
	_
	TTruncate
	TServerStats
	TPing
	TListHandles // enumerate stored handles with sizes (fsck)
	// Datatype I/O (DESIGN.md §6): the encoded constructor tree crosses
	// the wire and the daemon evaluates the access pattern itself.
	TReadDatatype
	TWriteDatatype
	// TSync asks an I/O daemon to hand its cached dirty blocks for the
	// request's handle to its backend store; for Dir that is the page
	// cache, not the disk (DESIGN.md §7). A daemon without a
	// write-back cache answers OK immediately.
	TSync
	// Metadata-plane operations (DESIGN.md §13). TShardMap queries the
	// epoch-stamped shard map. It carries no body, and one that does is
	// answered StatusInvalid: maps come only from the masters' log.
	// TMetaForward wraps a manager-grammar request in a MetaEnvelope so a
	// shard can check the client's epoch; a request for a name or handle
	// the shard does not own is refused with the current map, never
	// passed on.
	// The rest are master-replica internal: leader election
	// (TMetaVote), log replication and snapshot install (TMetaAppend),
	// shard state/snapshot fetch (TMetaFetch), and shard-originated
	// mutation proposals (TMetaPropose).
	TShardMap
	TMetaForward
	TMetaVote
	TMetaAppend
	_ // 24: retired; reserved so later types keep their wire values
	TMetaFetch
	// TMetaPropose submits one mutation record (a MetaRecord body) and
	// is answered with its MetaProposeVerdict. Concurrent proposals
	// coalesce in the leader's committer: one WAL fsync and one
	// replication wave cover every record queued together.
	TMetaPropose

	responseBit MsgType = 0x8000
)

// Response returns the response type for a request type.
func (t MsgType) Response() MsgType { return t | responseBit }

// IsResponse reports whether the type carries the response bit.
func (t MsgType) IsResponse() bool { return t&responseBit != 0 }

// Base strips the response bit.
func (t MsgType) Base() MsgType { return t &^ responseBit }

// msgTypeNames is indexed by base type; String runs on log and error
// paths per message, so the table is built once.
var msgTypeNames = [...]string{
	TInvalid: "invalid", TCreate: "create", TOpen: "open", TStat: "stat",
	TRemove: "remove", TListDir: "listdir", TSetSize: "setsize",
	TRead: "read", TWrite: "write", TReadList: "readlist",
	TWriteList: "writelist", TTruncate: "truncate",
	TServerStats: "serverstats", TPing: "ping",
	TListHandles: "listhandles", TReadDatatype: "readdatatype",
	TWriteDatatype: "writedatatype", TSync: "sync",
	TShardMap: "shardmap", TMetaForward: "metaforward",
	TMetaVote: "metavote", TMetaAppend: "metaappend",
	TMetaFetch: "metafetch", TMetaPropose: "metapropose",
}

func (t MsgType) String() string {
	b := t.Base()
	if int(b) >= len(msgTypeNames) || msgTypeNames[b] == "" {
		return fmt.Sprintf("type(%d)", uint16(t))
	}
	if t.IsResponse() {
		return msgTypeNames[b] + "-resp"
	}
	return msgTypeNames[b]
}

// Status codes carried in response headers.
type Status uint32

const (
	StatusOK Status = iota
	StatusNotFound
	StatusExists
	StatusInvalid
	StatusIOError
	StatusTooManyRegions
	StatusProtocol
	// StatusUnavailable is the retry-safe failure: the daemon answered
	// but could not service the request right now (draining for
	// shutdown, resource exhaustion). Unlike every other non-OK status
	// it carries no verdict about the request itself, so a client with
	// a retry policy may safely re-issue the identical request — all
	// PVFS data operations address absolute physical offsets and are
	// idempotent (DESIGN.md §9).
	StatusUnavailable
	// StatusWrongEpoch rejects a metadata request stamped with a shard
	// map epoch other than the shard's own; the response body carries the
	// shard's current ShardMap so the client can refresh and re-route
	// without another round trip (DESIGN.md §13). Like NotLeader it is a
	// routing verdict, not a request verdict: the client library handles
	// it internally and user code never sees it.
	StatusWrongEpoch
	// StatusNotLeader rejects a replication or proposal request sent to a
	// master replica that is not the current leader. The response body
	// may carry a leader address hint. Handled by the meta proposer's
	// leader-tracking retry, never by the generic Retryable path.
	StatusNotLeader
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not found"
	case StatusExists:
		return "exists"
	case StatusInvalid:
		return "invalid argument"
	case StatusIOError:
		return "i/o error"
	case StatusTooManyRegions:
		return "too many regions in trailing data"
	case StatusProtocol:
		return "protocol error"
	case StatusUnavailable:
		return "temporarily unavailable"
	case StatusWrongEpoch:
		return "stale shard map epoch"
	case StatusNotLeader:
		return "not the leader"
	default:
		return fmt.Sprintf("status(%d)", uint32(s))
	}
}

// Err converts a non-OK status into an error.
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	return &StatusError{Status: s}
}

// StatusError wraps a non-OK response status.
type StatusError struct{ Status Status }

func (e *StatusError) Error() string { return "pvfs: " + e.Status.String() }

// Retryable reports whether the status permits safe re-issue of the
// identical request. Only StatusUnavailable qualifies: every other
// server-reported error is a verdict on the request (bad geometry,
// missing handle) that a retry cannot change.
func (s Status) Retryable() bool { return s == StatusUnavailable }

// Errors returned by the codec.
var (
	ErrBadMagic       = errors.New("wire: bad magic")
	ErrBadVersion     = errors.New("wire: unsupported protocol version")
	ErrBodyTooLarge   = errors.New("wire: message body exceeds limit")
	ErrTooManyRegions = fmt.Errorf("wire: more than %d regions in trailing data", MaxRegionsPerRequest)
	ErrShortBody      = errors.New("wire: body shorter than declared fields")
	// ErrInvalidRegion marks trailing data whose region geometry is
	// hostile (negative offset/length or int64 overflow) rather than
	// merely malformed; servers answer it with StatusInvalid.
	ErrInvalidRegion = errors.New("wire: invalid region geometry")
)

// Header is the fixed-size message header that opens every frame. A
// connection's FrameReader parses it out of its read-ahead buffer, so a
// body that arrived with it costs no further read. Handle identifies
// the file (assigned by the manager); Status is meaningful only on
// responses.
// Tag matches responses to requests on pipelined connections: a server
// echoes the request's tag in its response, so a client may keep many
// tagged calls in flight on one connection and demultiplex out-of-order
// completions. Tag 0 denotes an untagged (serialized) exchange.
type Header struct {
	Type    MsgType
	Status  Status
	Handle  uint64
	BodyLen uint32
	Tag     uint32
}

// putHeader encodes h into buf, which must be at least HeaderSize long.
func putHeader(buf []byte, h Header) {
	binary.BigEndian.PutUint32(buf[0:], Magic)
	binary.BigEndian.PutUint16(buf[4:], Version)
	binary.BigEndian.PutUint16(buf[6:], uint16(h.Type))
	binary.BigEndian.PutUint32(buf[8:], uint32(h.Status))
	binary.BigEndian.PutUint64(buf[12:], h.Handle)
	binary.BigEndian.PutUint32(buf[20:], h.BodyLen)
	binary.BigEndian.PutUint32(buf[24:], h.Tag)
}

// parseHeader decodes and validates a header.
func parseHeader(buf []byte) (Header, error) {
	if binary.BigEndian.Uint32(buf[0:]) != Magic {
		return Header{}, ErrBadMagic
	}
	if v := binary.BigEndian.Uint16(buf[4:]); v != Version {
		return Header{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	h := Header{
		Type:    MsgType(binary.BigEndian.Uint16(buf[6:])),
		Status:  Status(binary.BigEndian.Uint32(buf[8:])),
		Handle:  binary.BigEndian.Uint64(buf[12:]),
		BodyLen: binary.BigEndian.Uint32(buf[20:]),
		Tag:     binary.BigEndian.Uint32(buf[24:]),
	}
	if h.BodyLen > MaxBodyLen {
		return Header{}, fmt.Errorf("%w: %d", ErrBodyTooLarge, h.BodyLen)
	}
	return h, nil
}

// BodyStream is a message payload the transport puts on the socket
// without first materializing it in a frame buffer: Len promises the
// exact byte count and WriteTo delivers it. Two producers exist. The
// storage layer implements it over a file descriptor (sendfile
// zero-copy reads, DESIGN.md §11) without importing wire; the
// transport writes the frame's prefix and then lets the stream put its
// bytes on the socket directly. *Vec describes caller-owned memory;
// WriteMessage folds its pieces into the frame's own write.
//
// WriteTo MUST deliver exactly Len bytes or fail: the frame header has
// already promised the length, so a short stream is a broken
// connection, not a recoverable error.
type BodyStream interface {
	Len() int
	io.WriterTo
}

// Vec is caller memory named piece by piece: the user arena's
// stripe-unit slices, or the arena extents of a list request's regions.
// As a BodyStream it is the payload of a copy-free write request, which
// stays where it lies until the kernel takes it; as a Message.Dest it
// is where a read response's body lands. N is the length the builder
// promises; WriteMessage and the transport refuse a Vec whose pieces do
// not add up to it (Check) before any byte crosses the socket. The
// pieces are never retained past the call and never consumed, so a
// request can be replayed verbatim.
type Vec struct {
	N      int
	Pieces [][]byte
}

// Len returns the promised payload length.
func (v *Vec) Len() int { return v.N }

// Check reports a Vec whose pieces do not hold exactly N bytes.
func (v *Vec) Check() error {
	held := 0
	for _, p := range v.Pieces {
		held += len(p)
	}
	if held != v.N {
		return fmt.Errorf("wire: vector promises %d bytes, pieces hold %d", v.N, held)
	}
	return nil
}

// WriteTo writes the pieces in order (one writev on a TCP connection).
// WriteMessage does not call it — it frames the pieces together with
// the header — but a Vec is a complete BodyStream on its own.
func (v *Vec) WriteTo(w io.Writer) (int64, error) {
	bufs := append(make(net.Buffers, 0, len(v.Pieces)), v.Pieces...)
	return bufs.WriteTo(w)
}

// Message is a complete protocol message: header plus raw body.
type Message struct {
	Header
	Body []byte

	// BodyStream, when non-nil, carries the payload that follows Body
	// on the wire: the transport frames len(Body)+BodyStream.Len()
	// bytes, writes Body (a request's small fixed fields; nil on a
	// streamed read response) and then the stream. BodyStream never
	// crosses the wire: a receiver sees one Body, materialized in a
	// pooled buffer unless the request named a Dest for it.
	BodyStream BodyStream

	// Dest, when set on a request, is caller memory the response body
	// lands in — the receive-side twin of BodyStream. A success response
	// whose body is exactly Dest.N bytes is read straight into the pieces
	// (ReadInto) and delivered with a nil Body and BodyLen == Dest.N;
	// any other response takes the pooled Body as usual. Dest never
	// crosses the wire.
	Dest *Vec

	// Recycle marks Body as owned by the wire buffer pool: the
	// transport returns it via PutBuf once the message is written.
	// Only producers that allocated Body with GetBuf and will never
	// touch it again may set it. Recycle never crosses the wire.
	Recycle bool
}

// coalesceMax is the largest frame WriteMessage still assembles in one
// buffer when it could writev instead: under a page, one copy and one
// write beat setting up a vector.
const coalesceMax = 4 << 10

// WriteMessage frames and writes a message: header, Body, then the
// BodyStream's bytes. On a *net.TCPConn a frame larger than
// coalesceMax leaves in one writev of the header, Body and a Vec's
// pieces as they lie in memory — no frame buffer, no copy — and one
// that fits a frame reader's buffer (frameBufSize: every
// acknowledgement and metadata message) is assembled in an array on
// the stack and written once, taking nothing from the pool. Any other
// writer (a fault-injecting or tracing wrapper, a bytes.Buffer), and a
// frame in between, gets the same bytes coalesced in a pooled buffer
// and exactly one Write. A BodyStream other than *Vec (the sendfile
// read path) is streamed after that prefix; a short or failed stream
// poisons the connection and surfaces as a write error.
func WriteMessage(w io.Writer, m Message) error {
	var (
		pieces [][]byte   // a Vec's payload: framed together with the header
		tail   BodyStream // any other stream: follows the framed prefix
		tailN  int
	)
	prefix := HeaderSize + len(m.Body)
	if m.BodyStream != nil {
		sn := m.BodyStream.Len()
		if sn < 0 || sn > MaxBodyLen {
			return ErrBodyTooLarge
		}
		if v, ok := m.BodyStream.(*Vec); ok {
			if err := v.Check(); err != nil {
				return err
			}
			pieces = v.Pieces
			prefix += sn
		} else {
			tail, tailN = m.BodyStream, sn
		}
	}
	bodyLen := prefix - HeaderSize + tailN
	if bodyLen > MaxBodyLen {
		return ErrBodyTooLarge
	}
	m.BodyLen = uint32(bodyLen)

	var err error
	tc, _ := w.(*net.TCPConn)
	switch {
	case tc != nil && prefix > coalesceMax:
		hdr := make([]byte, HeaderSize)
		putHeader(hdr, m.Header)
		bufs := make(net.Buffers, 0, 2+len(pieces))
		bufs = append(bufs, hdr)
		if len(m.Body) > 0 {
			bufs = append(bufs, m.Body)
		}
		bufs = append(bufs, pieces...)
		_, err = bufs.WriteTo(tc)
	case tc != nil && prefix <= frameBufSize:
		// Called on the concrete type, the array stays on the stack. It
		// is no larger than a frame reader's buffer: a per-request
		// handler goroutine writes its own response, and an array of
		// coalesceMax grows that goroutine's stack on every request
		// (DESIGN.md §2).
		var frame [frameBufSize]byte
		_, err = tc.Write(assemble(frame[:prefix], m, pieces))
	default:
		buf := GetBuf(prefix)
		_, err = w.Write(assemble(buf, m, pieces))
		PutBuf(buf)
	}
	if err != nil || tail == nil {
		return err
	}
	written, err := tail.WriteTo(w)
	if err != nil {
		return fmt.Errorf("wire: body stream after %d/%d bytes: %w", written, tailN, err)
	}
	if written != int64(tailN) {
		return fmt.Errorf("wire: body stream wrote %d of %d promised bytes", written, tailN)
	}
	return nil
}

// assemble writes m's header, its Body and pieces into buf, which holds
// exactly that many bytes, and returns buf.
func assemble(buf []byte, m Message, pieces [][]byte) []byte {
	putHeader(buf, m.Header)
	at := HeaderSize + copy(buf[HeaderSize:], m.Body)
	for _, p := range pieces {
		at += copy(buf[at:], p)
	}
	return buf
}

// --- body encoding helpers ---

type encoder struct{ buf []byte }

// sized returns an encoder whose buffer holds n bytes without growing:
// a body whose size is known up front costs one allocation.
func sized(n int) encoder { return encoder{buf: make([]byte, 0, n)} }

func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) i64(v int64) { e.u64(uint64(v)) }

// flag writes b as a u32, 1 for true; a decoder reads it as u32() != 0.
func (e *encoder) flag(b bool) {
	var v uint32
	if b {
		v = 1
	}
	e.u32(v)
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bytes(b []byte) { e.buf = append(e.buf, b...) }

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.err = ErrShortBody
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

// msgType reads a message type carried in a u32 field; one that does
// not fit a MsgType is malformed, not silently truncated.
func (d *decoder) msgType() MsgType {
	v := d.u32()
	if v > math.MaxUint16 && d.err == nil {
		d.err = fmt.Errorf("wire: message type %d out of range", v)
	}
	return MsgType(v)
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = ErrShortBody
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if uint32(len(d.buf)) < n {
		d.err = ErrShortBody
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) rest() []byte {
	b := d.buf
	d.buf = nil
	return b
}

// EncodeRegions appends a region list as trailing data: a count
// followed by offset/length pairs. It enforces the per-request limit.
func EncodeRegions(l ioseg.List) ([]byte, error) {
	return AppendRegions(make([]byte, 0, TrailingDataSize(len(l))), l)
}

// AppendRegions appends the trailing-data encoding of l to dst and
// returns the extended slice, so callers building a request body in a
// pooled buffer avoid the intermediate allocation of EncodeRegions.
func AppendRegions(dst []byte, l ioseg.List) ([]byte, error) {
	if len(l) > MaxRegionsPerRequest {
		return dst, ErrTooManyRegions
	}
	e := encoder{buf: dst}
	e.u32(uint32(len(l)))
	for _, s := range l {
		e.i64(s.Offset)
		e.i64(s.Length)
	}
	return e.buf, nil
}

// DecodeRegions parses trailing data produced by EncodeRegions and
// returns the region list plus the remaining bytes.
func DecodeRegions(b []byte) (ioseg.List, []byte, error) {
	d := decoder{buf: b}
	n := d.u32()
	if d.err != nil {
		return nil, nil, d.err
	}
	if n > MaxRegionsPerRequest {
		return nil, nil, ErrTooManyRegions
	}
	l := make(ioseg.List, 0, n)
	for i := uint32(0); i < n; i++ {
		off := d.i64()
		length := d.i64()
		if d.err != nil {
			return nil, nil, d.err
		}
		s := ioseg.Segment{Offset: off, Length: length}
		if err := s.Validate(); err != nil {
			return nil, nil, fmt.Errorf("%w: region %d: %v", ErrInvalidRegion, i, err)
		}
		l = append(l, s)
	}
	return l, d.rest(), nil
}

// TrailingDataSize returns the encoded size of n regions.
func TrailingDataSize(n int) int { return 4 + n*regionDescSize }

// FrameBudget returns how many regions fit in a single Ethernet frame
// alongside a request header, reproducing the paper's derivation of the
// 64-region limit (conservatively rounded down to a power of two).
func FrameBudget() int {
	n := (EthernetMSS - HeaderSize - 4) / regionDescSize
	// Round down to a power of two, as the authors did (91 -> 64).
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}
