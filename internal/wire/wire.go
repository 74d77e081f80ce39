// Package wire provides hand-written binary marshalling for the Vice-Virtue
// protocol. Encoding is explicit and reflection-free: every protocol message
// implements Encode/Decode against the Encoder and Decoder here, so the byte
// count of every call is exact — the simulator charges network time from
// these sizes, and the TCP transport writes the same bytes.
//
// All integers are little-endian. Variable-length fields (strings, byte
// slices) carry a u32 length prefix.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrTruncated is returned when a decoder runs out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLong is returned when a length prefix exceeds the decoder's sanity
// limit. It guards servers against hostile or corrupt frames.
var ErrTooLong = errors.New("wire: declared length too long")

// MaxField caps any single variable-length field.
const MaxField = 64 << 20

// keepField is the size from which a field decoded out of a received frame
// is worth keeping by reference. Decoder.Bytes returns slices of the frame's
// buffer, so keeping one pins the whole frame — head, seal overhead and the
// allocator's rounding of the buffer up to whole 8 KiB pages — for as long as
// the field is held. From 256 KiB that excess is at most about 3 % of the
// field and a file-sized copy is saved; below it the copy is cheap and the
// excess is not (a 100 B file would pin a 250 B frame; a 64 KiB one spills
// into a ninth page, which measured as +10 % resident memory on the
// benchmark's mixed_rw_2c).
const keepField = 256 << 10

// KeepField reports whether field, a slice of a received frame that its
// receiver owns, should be kept as it is rather than copied out and the frame
// dropped. Every layer that retains bulk data past the call that delivered it
// (volume.WriteData, Venus's cache install) decides with this one rule, from
// the field's size alone.
func KeepField(field []byte) bool { return len(field) >= keepField }

// Encoder accumulates a binary message. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Buf returns the encoded message. The slice aliases the encoder's buffer.
func (e *Encoder) Buf() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow ensures room for n more bytes without another allocation, for callers
// that know roughly how large the message will be.
func (e *Encoder) Grow(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.buf = append(make([]byte, 0, len(e.buf)+n), e.buf...)
	}
}

// U8 appends a byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes appends a u32 length prefix and the raw bytes.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a u32 length prefix and the string bytes.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends bytes with no length prefix.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// ListLen appends a u32 element count for a variable-length list. The
// matching Decoder.ListLen validates the count against the bytes actually
// present, so list encodings should always pair these two.
func (e *Encoder) ListLen(n int) { e.U32(uint32(n)) }

// Decoder consumes a binary message. Errors are sticky: after the first
// failure every accessor returns a zero value and Err reports the cause.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset re-points d at buf, clearing position and error state. It lets hot
// paths run a stack-allocated Decoder instead of a fresh heap one per
// message.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail makes err the decoder's error unless it has one already: a codec
// above this package refuses a well-formed but invalid value this way, and
// its caller's one Close reports it.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Close verifies the decoder consumed the whole message without error.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) || n < 0 {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 consumes a byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 consumes a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 consumes a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 consumes a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 consumes a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int consumes an int encoded as int64.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool consumes a one-byte boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Bytes consumes a u32 length prefix and that many bytes. The returned slice
// aliases the decoder's buffer.
func (d *Decoder) Bytes() []byte { return d.BytesLimit(MaxField) }

// BytesLimit is Bytes for a field whose format allows up to limit bytes
// rather than MaxField: a container decoded from local disk (a checkpoint's
// volume images) is bounded by its own file format, not by what one network
// message may carry.
func (d *Decoder) BytesLimit(limit uint32) []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > limit {
		d.err = ErrTooLong
		return nil
	}
	return d.take(int(n))
}

// String consumes a u32 length prefix and that many bytes as a string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// ListLen consumes a u32 element count and validates it against the bytes
// remaining: each element occupies at least minElemSize bytes, so a hostile
// count that could not possibly be satisfied fails immediately instead of
// driving a huge preallocation in the caller. minElemSize must be ≥ 1.
func (d *Decoder) ListLen(minElemSize int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if int64(n)*int64(minElemSize) > int64(d.Remaining()) {
		d.err = ErrTruncated
		return 0
	}
	return int(n)
}

// TraceHeader carries distributed-tracing context across an RPC boundary:
// the trace the call belongs to and the span that originated it. The zero
// value means "untraced" and is what untraced or sampled-out callers send.
// The header is a fixed 16 bytes and is always present in call packets, so
// enabling tracing never changes packet sizes or, with it, simulated time.
type TraceHeader struct {
	Trace uint64
	Span  uint64
}

// Encode appends the header's fixed 16-byte form.
func (h TraceHeader) Encode(e *Encoder) {
	e.U64(h.Trace)
	e.U64(h.Span)
}

// DecodeTraceHeader consumes a TraceHeader.
func DecodeTraceHeader(d *Decoder) TraceHeader {
	return TraceHeader{Trace: d.U64(), Span: d.U64()}
}

// Message is anything that can marshal itself onto an Encoder.
type Message interface {
	Encode(e *Encoder)
}

// encoders pools encoding buffers. Messages are encoded by appending
// piecewise, so a fresh Encoder pays a chain of growth reallocations per
// message. A warmed one costs nothing: a call's head and a journal record are
// encoded into one and copied out at once (sealed, written), and a call's
// Body, from MarshalPooled, lies in one for as long as the call is in flight
// — a request's until Call returns, a reply's until its carrier has sealed
// it. Only Marshal, for a caller that keeps the bytes, pays one exact-size
// allocation (the returned copy).
var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns an empty Encoder from an internal pool. Hand it back
// with PutEncoder after copying the bytes out.
func GetEncoder() *Encoder {
	e := encoders.Get().(*Encoder)
	e.Reset()
	return e
}

// maxPooled is the largest buffer PutEncoder keeps. The pool serves call
// heads of a few dozen bytes and journal records of a few kilobytes, and what
// one message grew an encoder to is what every later holder of it pins: a
// directory listing of a megabyte, or a record carrying a whole file, must
// not stay parked behind a 60-byte call. The bound is a memory bound, not a
// speed crossover — walstore's BenchmarkCommit has a reused buffer building a
// record about five times faster than a fresh one at every size (4 KiB: 0.25
// against 2.6 us; 64 KiB: 4.4 against 23 us) — set by the smallest resident
// set the benchmark measures: 13.4 MiB (shared_churn), gated at 20 %. The
// pool holds as many encoders as were ever in use at once, a handful on each
// side of a connection; eight of them at 64 KiB are 4 % of that set, at
// 256 KiB they would be 15 %. Every record the small-file workloads journal
// (2.0 KB a mutation on andrew_small, 2.2 on shared_churn, 4.2 on mixed_rw_2c)
// is far below it.
const maxPooled = 64 << 10

// PutEncoder returns e to the pool, unless a large message has grown it
// past maxPooled: that one is left to the collector. The caller must not
// retain e.Buf().
func PutEncoder(e *Encoder) {
	if cap(e.buf) <= maxPooled {
		encoders.Put(e)
	}
}

// decoders pools the Decoders of callers that hand theirs to a decode
// function value (proto.Unmarshal), where escape analysis must assume the
// worst and a local Decoder would be heap-allocated per message.
var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a pooled Decoder over buf. Hand it back with PutDecoder.
func GetDecoder(buf []byte) *Decoder {
	d := decoders.Get().(*Decoder)
	d.Reset(buf)
	return d
}

// PutDecoder returns d to the pool; it drops d's reference to the message.
func PutDecoder(d *Decoder) {
	d.Reset(nil)
	decoders.Put(d)
}

// Marshal encodes m into a fresh byte slice. It and MarshalPooled are
// generic over the message type so that a message passed by value is encoded
// where it lies, not boxed into a Message first.
func Marshal[M Message](m M) []byte {
	e := MarshalPooled(m)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	PutEncoder(e)
	return out
}

// MarshalPooled encodes m into an Encoder from the pool and returns it, for a
// caller that reads the bytes (Buf) only for a while and then hands the
// encoder back with PutEncoder: Marshal without the copy.
func MarshalPooled[M Message](m M) *Encoder {
	e := GetEncoder()
	m.Encode(e)
	return e
}

// Frame I/O: a frame is a u32 length followed by that many payload bytes.
// The TCP transport uses frames; the simulated transport carries the same
// payloads in netsim messages, so byte counts agree across transports.

// FrameHeaderSize is the byte length of a frame's length prefix.
const FrameHeaderSize = 4

// PutFrameHeader writes the length prefix of a frame carrying n payload
// bytes into dst[:FrameHeaderSize]. It is exported so a writer that streams a
// payload it never holds whole (secure.Box.SealFrame) emits the same header
// WriteFrame does.
func PutFrameHeader(dst []byte, n int) { binary.LittleEndian.PutUint32(dst, uint32(n)) }

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [FrameHeaderSize]byte
	PutFrameHeader(hdr[:], len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

var frameHeaders = sync.Pool{New: func() any { return new([FrameHeaderSize]byte) }}

// ReadFrame reads one length-prefixed frame, enforcing the MaxField limit.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameLimit(r, MaxField) }

// ReadFrameLimit reads one length-prefixed frame whose payload may not
// exceed limit bytes. The declared length is checked before the payload
// buffer is allocated, so a peer that has not yet proved anything (the
// handshake reads in rpc) can cost at most limit bytes of memory.
func ReadFrameLimit(r io.Reader, limit uint32) ([]byte, error) {
	// A local array would escape through the io.Reader and cost an
	// allocation per frame; the payload is the one a frame needs.
	hdr := frameHeaders.Get().(*[FrameHeaderSize]byte)
	_, err := io.ReadFull(r, hdr[:])
	n := binary.LittleEndian.Uint32(hdr[:])
	frameHeaders.Put(hdr)
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, ErrTooLong
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
