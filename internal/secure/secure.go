// Package secure implements the security machinery of Section 3.4: key
// derivation from user-supplied passwords (the password itself never crosses
// the wire), an encryption-based mutual authentication handshake between
// mutually suspicious parties sharing a key, per-session key generation, and
// sealed (encrypted and integrity-protected) records for all subsequent
// communication on a connection.
//
// The paper assumed cheap DES hardware; here records are sealed with
// AES-256-CTR and authenticated with HMAC-SHA256 (encrypt-then-MAC). The
// semantics — mutual suspicion, per-session keys limiting exposure of the
// long-term authentication key, an untrusted network — are exactly the
// paper's. Each direction of a Box runs one CTR keystream for all its
// records, each record starting at the block after the last one's, so a
// record costs no cipher object; its nonce names the block it starts at.
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
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

// Purposes a Box's subkeys are derived for.
var (
	purposeEncrypt = []byte("encrypt")
	purposeMAC     = []byte("mac")
)

// subkeys derives a Box's cipher and MAC keys from k, each the HMAC-SHA256
// of its purpose under k. Every dial and every accept builds a Box, so one
// HMAC derives both, into one array: k, then the cipher key, then the MAC
// key. (A copy of k outside it would be a heap object of its own.)
func subkeys(k Key) *[3 * KeySize]byte {
	keys := new([3 * KeySize]byte)
	copy(keys[:], k[:])
	m := hmac.New(sha256.New, keys[:KeySize])
	m.Write(purposeEncrypt)
	m.Sum(keys[:KeySize])
	m.Reset()
	m.Write(purposeMAC)
	m.Sum(keys[:2*KeySize])
	return keys
}

// Sealed-record layout: nonce (16) || ciphertext (len(plain)) || tag (32).
// The nonce is the counter block the record's keystream starts at: the
// sealing Box's 8-byte prefix, then a 64-bit big-endian block counter.
const (
	nonceSize = aes.BlockSize
	tagSize   = sha256.Size
	// Overhead is the fixed byte cost Seal adds to a plaintext.
	Overhead = nonceSize + tagSize
)

// ErrBadSeal is returned when a sealed record fails authentication or is
// malformed. Callers must treat it as evidence of tampering or a wrong key.
var ErrBadSeal = errors.New("secure: record failed authentication")

// Box seals and opens records under one key. A Box is safe for concurrent
// use.
//
// Nonces are structured rather than random, saving a system-entropy read per
// record: 8 random bytes fixed at Box creation (so two Boxes sealing under
// the same key cannot collide) and a block counter. Each direction keeps one
// CTR stream and one HMAC for the Box's life. A record of n bytes takes
// n/16+1 counter blocks — the unused tail of its last block is thrown away —
// and the next record starts at the block after, where the stream already
// stands, so no keystream byte is ever used twice and no record builds a
// cipher object. Only a record the receiving stream does not stand at (the
// simulator's duplicates, replays and reorderings) re-seats it with one
// cipher.NewCTR; a keystream depends on nothing but its counter block.
// Both readers, Open and OpenNext, decrypt a record where it lies.
type Box struct {
	block       cipher.Block
	noncePrefix [8]byte
	send, recv  direction
}

// direction is one direction of a Box's records: what Seal and SealFrame
// run on send, what Open and OpenNext run on recv.
type direction struct {
	mu sync.Mutex // guards the rest, and serializes records: one at a time is sealed and, by SealFrame, written

	mac hash.Hash // HMAC-SHA256 under the Box's MAC subkey
	sum [tagSize]byte

	// stream stands at the counter block pos (nil before the first record)
	// between records. pos moves on only when a record is finished, so one
	// abandoned part-way leaves it at that record's first block, which no
	// later record starts at: the next one re-seats.
	stream cipher.Stream
	pos    [nonceSize]byte

	// tail is where the unused end of a record's last block is thrown away.
	// It is here because a local array would escape through cipher.Stream
	// and cost an allocation per record.
	tail [aes.BlockSize]byte

	// next is, on send, the block the next record starts at; on recv, the
	// block the far side's next record must start at, with far its prefix
	// (fixed by its first record, while next is 0).
	next uint64
	far  [8]byte
}

// NewBox returns a Box keyed by k.
func NewBox(k Key) *Box {
	keys := subkeys(k)
	block, err := aes.NewCipher(keys[KeySize : 2*KeySize])
	if err != nil {
		panic(err) // key length is fixed; cannot happen
	}
	b := &Box{block: block}
	if _, err := rand.Read(b.noncePrefix[:]); err != nil {
		panic(fmt.Sprintf("secure: nonce prefix: %v", err))
	}
	b.send.mac = hmac.New(sha256.New, keys[2*KeySize:])
	b.recv.mac = hmac.New(sha256.New, keys[2*KeySize:])
	return b
}

// recordBlocks is how many counter blocks a record of n bytes takes: at
// least one, so no two records of a Box share a nonce.
func recordBlocks(n int) uint64 { return uint64(n)/aes.BlockSize + 1 }

// seat makes d.stream stand at the counter block nonce names: where the
// last record left it, or a stream built there.
func (d *direction) seat(block cipher.Block, nonce []byte) {
	if d.stream == nil || d.pos != [nonceSize]byte(nonce) {
		d.stream = cipher.NewCTR(block, nonce)
		d.pos = [nonceSize]byte(nonce)
	}
}

// finish ends a record of n bytes started at pos: it throws away the rest
// of the record's last block, so the stream stands at the next record's
// first.
func (d *direction) finish(n int) {
	pad := aes.BlockSize - n%aes.BlockSize
	d.stream.XORKeyStream(d.tail[:pad], d.tail[:pad])
	binary.BigEndian.PutUint64(d.pos[8:], binary.BigEndian.Uint64(d.pos[8:])+recordBlocks(n))
}

// tag appends body's HMAC to out.
func (d *direction) tag(body, out []byte) []byte {
	d.mac.Reset()
	d.mac.Write(body)
	return d.mac.Sum(out)
}

// ErrNonceExhausted is returned by SealFrame when a record's blocks would
// run the Box's 64-bit block counter past its end, into a keystream another
// prefix may own. The connection must be torn down and re-established,
// which yields a fresh session key.
var ErrNonceExhausted = errors.New("secure: nonce counter exhausted")

// nextNonce writes the nonce of the next record, of n bytes, into
// nonce[:nonceSize] and seats the send stream there. The record's blocks are
// taken whether or not anything is later written with them, so an abandoned
// record's keystream is never handed out again. The caller holds b.send.mu.
func (b *Box) nextNonce(nonce []byte, n int) error {
	d, nonce := &b.send, nonce[:nonceSize]
	blocks := recordBlocks(n)
	if blocks > math.MaxUint64-d.next {
		return ErrNonceExhausted
	}
	copy(nonce, b.noncePrefix[:])
	binary.BigEndian.PutUint64(nonce[8:], d.next)
	d.next += blocks
	d.seat(b.block, nonce)
	return nil
}

// Seal encrypts and authenticates the plaintext made of parts in turn,
// returning nonce||ct||tag: one record, the same bytes as sealing the parts
// joined, which are never joined. It panics when the block counter is
// exhausted: its callers are the simulator, whose connections never approach
// 2^64 blocks, and the four-message handshake. The real transport seals with
// SealFrame, which reports exhaustion as an error instead.
func (b *Box) Seal(parts ...[]byte) []byte {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	out := make([]byte, nonceSize+n, nonceSize+n+tagSize)
	d := &b.send
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := b.nextNonce(out, n); err != nil {
		panic(err.Error())
	}
	ct := out[nonceSize:]
	for _, part := range parts {
		d.stream.XORKeyStream(ct[:len(part)], part)
		ct = ct[len(part):]
	}
	d.finish(n)
	return d.tag(out, out)
}

// sealChunk is SealFrame's working-buffer size: large enough that a 4 MiB
// transfer spends its time in AES and SHA-256 rather than in Write calls,
// small enough to stay cache-resident between the encrypt, MAC and write
// passes over it and to keep the pool (one buffer per concurrently sealing
// connection) invisible in a small daemon's resident set. A 4 MiB echo
// between two Peers over loopback TCP took about a fifth longer at 16 KiB
// and was no faster at 64 or 128 KiB. Every call or reply without a bulk
// payload fits in one chunk and so in one Write.
const sealChunk = 32 << 10

var sealBufs = sync.Pool{New: func() any { return new([sealChunk]byte) }}

// SealFrame seals head||bulk as one record and writes it to w as one wire
// frame: the bytes are exactly those of wire.WriteFrame(w, b.Seal(head||bulk))
// under the same nonce — length prefix, nonce, ciphertext, tag — but the
// plaintext is never joined and the record never exists whole. It is
// encrypted chunk by chunk through a pooled buffer (encrypt-then-MAC over
// nonce||ct, as Seal), and each chunk goes to w as soon as it is full. The
// pooled buffer only ever holds ciphertext.
//
// The Box's send side is held for the whole frame, so concurrent senders on
// one connection pace each other on w's writes and their frames never
// interleave. An error means w may have received part of a frame: the caller
// must abandon the stream. head and bulk are only read.
func (b *Box) SealFrame(w io.Writer, head, bulk []byte) error {
	bp := sealBufs.Get().(*[sealChunk]byte)
	defer sealBufs.Put(bp)
	buf := bp[:]
	n := len(head) + len(bulk)
	wire.PutFrameHeader(buf, n+Overhead)
	d := &b.send
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := b.nextNonce(buf[wire.FrameHeaderSize:], n); err != nil {
		return err
	}
	m := d.mac
	m.Reset()

	// Each pass fills buf with ciphertext, MACs what it added and writes it:
	// a full chunk, or the last one with the tag after it. buf[:fill] is
	// output not yet written; buf[macFrom:fill] of it is not yet MACed (the
	// length prefix never is).
	macFrom, fill := wire.FrameHeaderSize, wire.FrameHeaderSize+nonceSize
	src := [2][]byte{head, bulk}
	for {
		for i := range src {
			k := min(len(src[i]), len(buf)-fill)
			d.stream.XORKeyStream(buf[fill:fill+k], src[i][:k])
			fill += k
			src[i] = src[i][k:]
		}
		m.Write(buf[macFrom:fill])
		out := buf[:fill]
		last := len(src[0])+len(src[1]) == 0 && len(buf)-fill >= tagSize
		if last {
			d.finish(n)
			out = m.Sum(out)
		}
		//itcvet:allowblocking the send side serializes frames: a connection's senders pace each other on its writes, chunk by chunk as each frame is sealed
		if _, err := w.Write(out); err != nil || last {
			return err
		}
		macFrom, fill = 0, 0
	}
}

// verify authenticates a record produced by Seal or SealFrame in constant
// time and returns its nonce and ciphertext, both aliasing sealed.
func (d *direction) verify(sealed []byte) (nonce, ct []byte, err error) {
	if len(sealed) < Overhead {
		return nil, nil, ErrBadSeal
	}
	body := sealed[:len(sealed)-tagSize]
	tag := sealed[len(sealed)-tagSize:]
	if subtle.ConstantTimeCompare(d.tag(body, d.sum[:0]), tag) != 1 {
		return nil, nil, ErrBadSeal
	}
	return body[:nonceSize], body[nonceSize:], nil
}

// Open authenticates a record and decrypts it where it lies, returning the
// plaintext as a sub-slice of sealed, whatever records came before it: a
// record the receive stream does not stand at (a duplicate's twin went
// first, a replay, a reordering) re-seats it with one cipher.NewCTR. After
// success sealed no longer verifies, so the caller must own it and open it
// once. Every caller does: each simulated packet carries bytes of its own,
// a fault-plane duplicate included (netsim.Duplicable), the reply cache
// seals each replay afresh, and a handshake message is opened once by the
// one side it is addressed to. A refused record is left as it was.
func (b *Box) Open(sealed []byte) ([]byte, error) {
	d := &b.recv
	d.mu.Lock()
	defer d.mu.Unlock()
	nonce, ct, err := d.verify(sealed)
	if err != nil {
		return nil, err
	}
	d.seat(b.block, nonce)
	d.stream.XORKeyStream(ct, ct)
	d.finish(len(ct))
	return ct, nil
}

// OpenNext opens the far side's next record where it lies, returning the
// plaintext as a sub-slice of sealed; it is the one reader of a session,
// which calls it once per record in the order the records arrive. It
// decrypts only after two checks pass. The tag must verify. And the record
// must be the far side's next: both directions share the session key, so the
// tag cannot tell a fresh record from one of the far side's replayed or one
// of this side's reflected back, but the nonce can. The far side's first
// record fixes its prefix, which must differ from b's own, and must start at
// block 0; every later record must carry that prefix and start at exactly
// the block after the last. A refused record gets ErrBadSeal and leaves
// sealed and b as they were; the caller drops the connection. After success
// sealed no longer verifies, so the caller must own it and not open it again.
func (b *Box) OpenNext(sealed []byte) ([]byte, error) {
	d := &b.recv
	d.mu.Lock()
	defer d.mu.Unlock()
	nonce, ct, err := d.verify(sealed)
	if err != nil {
		return nil, err
	}
	prefix, at := [8]byte(nonce), binary.BigEndian.Uint64(nonce[8:])
	first := d.next == 0
	if at != d.next || first && prefix == b.noncePrefix || !first && prefix != d.far {
		return nil, ErrBadSeal
	}
	d.far, d.next = prefix, at+recordBlocks(len(ct))
	d.seat(b.block, nonce)
	d.stream.XORKeyStream(ct, ct)
	d.finish(len(ct))
	return ct, nil
}
