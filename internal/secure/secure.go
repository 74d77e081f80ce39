// Package secure implements the security machinery of Section 3.4: key
// derivation from user-supplied passwords (the password itself never crosses
// the wire), an encryption-based mutual authentication handshake between
// mutually suspicious parties sharing a key, per-session key generation, and
// sealed (encrypted and integrity-protected) records for all subsequent
// communication on a connection.
//
// The paper put cheap DES hardware on every packet; the cheap hardware here
// is AES-NI with carry-less multiply, so a record is sealed with AES-256-GCM,
// one AEAD per Box under the Box's key. The semantics — mutual suspicion,
// per-session keys limiting exposure of the long-term authentication key, an
// untrusted network — are exactly the paper's.
//
// # Records
//
// A record's plaintext is cut into chunks of at most sealChunk bytes, each
// sealed on its own and laid out as nonce (12) || ciphertext || tag (16), one
// after the other; a record of n bytes is chunks(n) such chunks, so its
// length alone says where each chunk lies (PlainLen). The chunks of one
// record take consecutive nonces: chunk i's is the record's first nonce with
// i added to its last three bytes, modulo 2^24. Each chunk's additional data
// marks whether it is its record's first and whether its last. So a record
// cut short at a chunk boundary (its new last chunk is not marked last), cut
// at its front (its new first chunk is not marked first), reordered, or with
// a chunk of another record spliced in (the nonce does not follow) fails to
// open. Both readers, Open and OpenNext, open each chunk where it lies and
// move its plaintext down over the gap the last chunk's tag and this one's
// nonce leave, so the record's plaintext ends contiguous, right after its
// first nonce.
//
// # Nonce uniqueness
//
// GCM's secrecy and its integrity both rest on one property: no nonce is used
// twice under one key. It holds for the two kinds of key a Box is built with.
//
// A session key is fresh per connection (the handshake's message 4, drawn
// from crypto/rand) and held by exactly two Boxes, one per end, each built
// with its Role by NewSessionBox. A session Box's record nonce is its role
// byte, a 64-bit big-endian count of the records it has sealed, and a
// three-byte chunk index, 0 for a record's first chunk. Two chunks of one
// record differ in the index (a record is at most 2^24 chunks, 512 GiB, and a
// longer one is refused), two records of one end in the count, and the two
// ends in the role byte. The count is taken under the Box's send lock and
// spent whether or not the record is then written; it never wraps, because
// the record that would need the last value is refused with
// ErrNonceExhausted. The role byte also lets each end refuse a record that
// bears its own role: one of its own reflected back at it.
//
// A long-term key (the user's, derived from the password) seals the
// handshake's messages, and every login of the user reuses it from a Box of
// its own, so no counter can span them. Such a Box (NewBox) draws a random
// 96-bit nonce for each record from crypto/rand. Its chunks take the nonces
// after it as above, and a handshake message is one chunk, so after q
// records under one key the chance that any two share a nonce is below
// q²/2^97: under 2^-33 after a billion logins, four records each.
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"itcfs/internal/wire"
)

// KeySize is the byte length of all keys in this package.
const KeySize = 32

// Key is long-term or session key material.
type Key [KeySize]byte

// deriveIters is the password-stretching iteration count. Modest by modern
// standards but this is a closed simulation, not a password vault.
const deriveIters = 4096

// derivedKeys memoizes DeriveKey. The derivation is a pure function of
// (user, password) and deliberately expensive; a simulation logging in tens
// of thousands of workstation users with a handful of distinct credentials
// would otherwise spend a measurable fraction of its CPU re-stretching the
// same passwords.
var derivedKeys sync.Map // string(user\x00password) -> Key

// DeriveKey stretches a user password into an authentication key. The user
// name salts the derivation so equal passwords yield distinct keys.
func DeriveKey(user, password string) Key {
	memoKey := user + "\x00" + password
	if k, ok := derivedKeys.Load(memoKey); ok {
		return k.(Key)
	}
	h := sha256.Sum256([]byte("itcfs-v1|" + user + "|" + password))
	mix := sha256.New()
	for i := 0; i < deriveIters; i++ {
		mix.Reset()
		mix.Write(h[:])
		var ctr [4]byte
		binary.LittleEndian.PutUint32(ctr[:], uint32(i))
		mix.Write(ctr[:])
		mix.Sum(h[:0])
	}
	derivedKeys.Store(memoKey, Key(h))
	return Key(h)
}

// NewSessionKey returns a fresh random key.
func NewSessionKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("secure: session key: %w", err)
	}
	return k, nil
}

// Sealed-chunk layout: nonce (12) || ciphertext || tag (16).
const (
	nonceSize = 12
	tagSize   = 16
	// Overhead is the byte cost sealing adds to each chunk of a record: a
	// record of at most 32 KiB grows by exactly Overhead.
	Overhead = nonceSize + tagSize
)

// sealChunk is the most plaintext one chunk carries, and so SealFrame's
// working-buffer size: large enough that a 4 MiB transfer spends its time in
// AES-GCM rather than in Write calls and per-chunk setup, small enough to
// stay cache-resident between the seal and write passes over it and to keep
// the pool (one buffer per concurrently sealing connection) invisible in a
// small daemon's resident set. When the size was chosen, under the AES-CTR
// and HMAC-SHA256 seal, a 4 MiB echo between two Peers over loopback TCP
// took about a fifth longer at 16 KiB and was no faster at 64 or 128 KiB;
// AES-GCM seals a 4 MiB frame at the same 2.9–3.5 GB/s from 16 to 128 KiB
// (BenchmarkSealFrame4M, two vCPUs), so the Writes still decide. Every call
// or reply without a bulk payload fits in one chunk and so in one Write.
const sealChunk = 32 << 10

// maxChunks bounds a record's chunks: the chunk index is the nonce's last
// three bytes.
const maxChunks = 1 << 24

// chunks is how many chunks a record of n plaintext bytes is sealed in: at
// least one, so an empty record is still authenticated.
func chunks(n int) int { return max(1, (n+sealChunk-1)/sealChunk) }

// PlainLen returns the plaintext length of a sealed record m bytes long, or
// -1 when no record is m bytes long.
func PlainLen(m int) int {
	c := max(1, (m+sealChunk+Overhead-1)/(sealChunk+Overhead))
	n := m - c*Overhead
	if n < 0 || c > 1 && n <= (c-1)*sealChunk {
		return -1
	}
	return n
}

// Each chunk's additional data is one byte of marks.
const (
	markFirst = 1 << iota
	markLast
)

var marks = [...]byte{0, markFirst, markLast, markFirst | markLast}

// mark returns the additional data of chunk i of a record of c chunks.
func mark(i, c int) []byte {
	m := 0
	if i == 0 {
		m |= markFirst
	}
	if i == c-1 {
		m |= markLast
	}
	return marks[m : m+1]
}

// step moves a chunk's nonce on to the next chunk's: one more in its last
// three bytes, modulo 2^24.
func step(nonce *[nonceSize]byte) {
	i := uint32(nonce[9])<<16 | uint32(nonce[10])<<8 | uint32(nonce[11]) + 1
	nonce[9], nonce[10], nonce[11] = byte(i>>16), byte(i>>8), byte(i)
}

// ErrBadSeal is returned when a sealed record fails authentication or is
// malformed. Callers must treat it as evidence of tampering or a wrong key.
var ErrBadSeal = errors.New("secure: record failed authentication")

// ErrNonceExhausted is returned by SealFrame when a session Box has sealed
// the last record its 64-bit count allows, or when a record would need more
// than 2^24 chunks. The connection must be torn down and re-established,
// which yields a fresh session key.
var ErrNonceExhausted = errors.New("secure: nonce counter exhausted")

// Role is the end of a connection a session Box seals for. The two ends'
// records carry different role bytes in their nonces, so under one session
// key they never share a nonce, and each end refuses a record bearing its
// own.
type Role byte

const (
	Dialer   Role = 1 // the end that ran ClientHandshake
	Acceptor Role = 2 // the end that ran ServerHandshake
)

// Box seals and opens records under one key. A Box is safe for concurrent
// use.
type Box struct {
	aead cipher.AEAD
	// role is a session Box's end; 0 for a Box under a long-term key, which
	// draws a random nonce per record and opens any record it can
	// authenticate.
	role       Role
	send, recv direction
}

// direction is one direction of a session Box's records.
type direction struct {
	mu sync.Mutex // guards next; on send it also serializes SealFrame's frames, on recv OpenNext's records

	// next is, on send, the count the next record sealed carries; on recv,
	// the count the far side's next record must carry.
	next uint64
}

// NewBox returns a Box under the long-term key k, as the handshake uses:
// each record takes a random nonce.
func NewBox(k Key) *Box { return &Box{aead: newAEAD(k)} }

// NewSessionBox returns the Box of end r of a session under the session key
// k. Each end of a connection builds one with its own Role.
func NewSessionBox(k Key, r Role) *Box { return &Box{aead: newAEAD(k), role: r} }

func newAEAD(k Key) cipher.AEAD {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic(err) // key length is fixed; cannot happen
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err) // AES has GCM's block size; cannot happen
	}
	return aead
}

// firstNonce writes the first nonce of the next record, of c chunks: a
// session Box's role, its count of records sealed and chunk index 0; a
// long-term Box's 96 random bits. A session Box's count is spent here, so a
// record abandoned part-way never lends its nonces to another. The caller
// holds b.send.mu.
func (b *Box) firstNonce(nonce *[nonceSize]byte, c int) error {
	if c > maxChunks {
		return ErrNonceExhausted
	}
	if b.role == 0 {
		if _, err := rand.Read(nonce[:]); err != nil {
			panic(fmt.Sprintf("secure: nonce: %v", err))
		}
		return nil
	}
	if b.send.next == math.MaxUint64 {
		return ErrNonceExhausted
	}
	nonce[0] = byte(b.role)
	binary.BigEndian.PutUint64(nonce[1:9], b.send.next)
	nonce[9], nonce[10], nonce[11] = 0, 0, 0
	b.send.next++
	return nil
}

// plaintext is a record's plaintext as the parts it is sealed from, in turn.
// The parts are only read, and never joined.
type plaintext struct {
	parts [][]byte
	at    int // how much of parts[0] is taken
}

// take returns the next n bytes of the plaintext: where they lie when one
// part holds them all, else gathered into buf.
func (p *plaintext) take(n int, buf []byte) []byte {
	if len(p.parts) > 0 && len(p.parts[0])-p.at >= n {
		s := p.parts[0][p.at : p.at+n]
		p.at += n
		return s
	}
	buf = buf[:n]
	for got := 0; got < n; {
		k := copy(buf[got:], p.parts[0][p.at:])
		got += k
		p.at += k
		if p.at == len(p.parts[0]) {
			p.parts, p.at = p.parts[1:], 0
		}
	}
	return buf
}

// sealChunkAt seals plain as chunk i of a record of c chunks into chunk,
// whose nonce is in place; plain lies in chunk right after it or outside it.
func (b *Box) sealChunkAt(chunk, plain []byte, i, c int) {
	b.aead.Seal(chunk[nonceSize:nonceSize], chunk[:nonceSize], plain, mark(i, c))
}

// Seal encrypts and authenticates the plaintext made of parts in turn and
// returns the record: the same bytes as sealing the parts joined, which are
// never joined. It panics when the Box's nonces are exhausted: its callers
// are the simulator, whose connections never approach 2^64 records, and the
// four-message handshake. The real transport seals with SealFrame, which
// reports exhaustion as an error instead.
func (b *Box) Seal(parts ...[]byte) []byte {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	c := chunks(n)
	var nonce [nonceSize]byte
	b.send.mu.Lock()
	err := b.firstNonce(&nonce, c)
	b.send.mu.Unlock()
	if err != nil {
		panic(err.Error())
	}
	out := make([]byte, n+c*Overhead)
	src := plaintext{parts: parts}
	for i, off := 0, 0; i < c; i++ {
		size := min(n-i*sealChunk, sealChunk)
		chunk := out[off : off+size+Overhead]
		copy(chunk, nonce[:])
		b.sealChunkAt(chunk, src.take(size, chunk[nonceSize:]), i, c)
		step(&nonce)
		off += len(chunk)
	}
	return out
}

// sealBuf is SealFrame's working buffer: one whole chunk, and the frame's
// length prefix before the first.
type sealBuf [wire.FrameHeaderSize + sealChunk + Overhead]byte

var sealBufs = sync.Pool{New: func() any { return new(sealBuf) }}

// SealFrame seals head||bulk as one record and writes it to w as one wire
// frame: the bytes are exactly those of wire.WriteFrame(w, b.Seal(head, bulk))
// under the same nonces — length prefix, then the chunks — but the
// plaintext is never joined and the record never exists whole. Each chunk is
// sealed into a pooled buffer and written to w as soon as it is sealed, the
// first with the length prefix before it. The pooled buffer holds plaintext
// only while a chunk that straddles head and bulk is sealed in place.
//
// The Box's send side is held for the whole frame, so concurrent senders on
// one connection pace each other on w's writes and their frames never
// interleave. An error means w may have received part of a frame: the caller
// must abandon the stream. head and bulk are only read.
func (b *Box) SealFrame(w io.Writer, head, bulk []byte) error {
	bp := sealBufs.Get().(*sealBuf)
	defer sealBufs.Put(bp)
	buf := bp[:]
	n := len(head) + len(bulk)
	c := chunks(n)
	var nonce [nonceSize]byte
	b.send.mu.Lock()
	defer b.send.mu.Unlock()
	if err := b.firstNonce(&nonce, c); err != nil {
		return err
	}
	wire.PutFrameHeader(buf, n+c*Overhead)
	src := [2][]byte{head, bulk}
	pt := plaintext{parts: src[:]}
	at := wire.FrameHeaderSize // where the chunk starts in buf
	for i := 0; i < c; i++ {
		size := min(n-i*sealChunk, sealChunk)
		chunk := buf[at : at+size+Overhead]
		copy(chunk, nonce[:])
		b.sealChunkAt(chunk, pt.take(size, chunk[nonceSize:]), i, c)
		step(&nonce)
		//itcvet:allowblocking the send side serializes frames: a connection's senders pace each other on its writes, chunk by chunk as each frame is sealed
		if _, err := w.Write(buf[:at+len(chunk)]); err != nil {
			return err
		}
		at = 0
	}
	return nil
}

// open opens the record sealed where it lies (see the package doc) and
// returns its plaintext, sealed[nonceSize:nonceSize+n]. A session Box
// refuses a record that does not bear the far end's role, and one whose
// count is not *count when count is not nil. A refused record is wiped to
// zeros, so no part of it that was opened before the refusal stays as
// plaintext.
func (b *Box) open(sealed []byte, count *uint64) ([]byte, error) {
	plain, ok := b.openChunks(sealed, count)
	if !ok {
		clear(sealed)
		return nil, ErrBadSeal
	}
	return plain, nil
}

func (b *Box) openChunks(sealed []byte, count *uint64) ([]byte, bool) {
	n := PlainLen(len(sealed))
	if n < 0 {
		return nil, false
	}
	nonce := [nonceSize]byte(sealed)
	if b.role != 0 && Role(nonce[0]) != Dialer+Acceptor-b.role ||
		count != nil && binary.BigEndian.Uint64(nonce[1:9]) != *count {
		return nil, false
	}
	c := chunks(n)
	for i, off := 0, 0; i < c; i++ {
		size := min(n-i*sealChunk, sealChunk)
		chunk := sealed[off : off+size+Overhead]
		if [nonceSize]byte(chunk) != nonce {
			return nil, false
		}
		if _, err := b.aead.Open(chunk[nonceSize:nonceSize], chunk[:nonceSize], chunk[nonceSize:], mark(i, c)); err != nil {
			return nil, false
		}
		if i > 0 {
			copy(sealed[nonceSize+i*sealChunk:], chunk[nonceSize:nonceSize+size])
		}
		step(&nonce)
		off += len(chunk)
	}
	return sealed[nonceSize : nonceSize+n], true
}

// Open authenticates a record and decrypts it where it lies, returning the
// plaintext as a sub-slice of sealed, whatever records came before it: the
// simulator's duplicates, replays and reorderings open as they arrive, and
// its reply cache tells a call seen before. A session Box refuses a record
// of its own reflected back at it. After success sealed no longer verifies,
// so the caller must own it and open it once. Every caller does: each
// simulated packet carries bytes of its own, a fault-plane duplicate
// included (netsim.Duplicable), the reply cache seals each replay afresh, and
// a handshake message is opened once by the one side it is addressed to. A
// refused record is wiped.
func (b *Box) Open(sealed []byte) ([]byte, error) { return b.open(sealed, nil) }

// OpenNext opens the far side's next record where it lies, returning the
// plaintext as a sub-slice of sealed; it is the one reader of a session,
// which calls it once per record in the order the records arrive. Both
// directions share the session key, so a record's tags cannot tell a fresh
// record from one of the far side's replayed or one of this side's
// reflected back, but its nonce can: it must bear the far end's role and
// carry the count of the far side's records this Box has opened. A refused
// record gets ErrBadSeal, is wiped and leaves b as it was; the caller drops
// the connection. A Box under a long-term key has no session to read and
// refuses every record. After success sealed no longer verifies, so the
// caller must own it and not open it again.
func (b *Box) OpenNext(sealed []byte) ([]byte, error) {
	if b.role == 0 {
		clear(sealed)
		return nil, ErrBadSeal
	}
	d := &b.recv
	d.mu.Lock()
	defer d.mu.Unlock()
	plain, err := b.open(sealed, &d.next)
	if err == nil {
		d.next++
	}
	return plain, err
}
