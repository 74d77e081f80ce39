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
// paper's.
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
	"sync"
	"sync/atomic"

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

// subkey derives a purpose-specific key from k.
func subkey(k Key, purpose string) []byte {
	m := hmac.New(sha256.New, k[:])
	m.Write([]byte(purpose))
	return m.Sum(nil)
}

// Sealed-record layout: nonce (16) || ciphertext (len(plain)) || tag (32).
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
// use, except InSequence, which belongs to the one reader of a session.
//
// Nonces are structured rather than random, saving a system-entropy read per
// record: 8 random bytes fixed at Box creation (so two Boxes sealing under
// the same key cannot collide), a 32-bit record counter, and 4 zero bytes
// left for CTR's own block counter — records up to 2^32 AES blocks (64 GiB)
// cannot run into the next record's keystream. Per-record working state is
// pooled and reset rather than re-keyed per record — at tens of thousands of
// simulated clients, per-message hmac.New was the single largest allocation
// site in the whole system.
type Box struct {
	block       cipher.Block
	macKey      []byte
	noncePrefix [8]byte
	nonceCtr    atomic.Uint64
	states      sync.Pool // *recordState

	// The far side's records as InSequence has admitted them: the nonce
	// prefix of the first and the counter of the last (0 before the first).
	// Only the session's one reader touches them.
	farPrefix [8]byte
	farCtr    uint32
}

// recordState is the pooled working state of one record being sealed or
// opened: an HMAC-SHA256 keyed by macKey, the scratch verify computes the
// expected tag into, and the counter and keystream blocks of a small
// record's CTR. All three are here because a local array would escape
// through the hash.Hash or cipher.Block interface and cost an allocation
// per record.
type recordState struct {
	h   hash.Hash
	sum [tagSize]byte

	block cipher.Block
	ctr   [aes.BlockSize]byte // next counter block
	ks    [aes.BlockSize]byte // keystream block in use
	used  int                 // bytes of ks already consumed
}

// NewBox returns a Box keyed by k.
func NewBox(k Key) *Box {
	block, err := aes.NewCipher(subkey(k, "encrypt"))
	if err != nil {
		panic(err) // key length is fixed; cannot happen
	}
	b := &Box{block: block, macKey: subkey(k, "mac")}
	if _, err := rand.Read(b.noncePrefix[:]); err != nil {
		panic(fmt.Sprintf("secure: nonce prefix: %v", err))
	}
	b.states.New = func() any { return &recordState{h: hmac.New(sha256.New, b.macKey), block: b.block} }
	return b
}

// smallRecord is the largest record whose CTR keystream is produced one AES
// block at a time in the pooled state instead of by a cipher.NewCTR stream.
// The stdlib stream runs eight blocks per assembly dispatch but is a 512-byte
// allocation per record; stepping the counter costs one cipher.Block.Encrypt
// interface call per 16 bytes and allocates nothing. The crossover, measured
// by BenchmarkCTR on the two-vCPU sandbox this was written on (ns per record,
// median of three):
//
//	bytes      64   128   256   512
//	blockwise  97   187   362   747
//	stdlib    319   304   346   433   (plus one 512 B object)
//
// Most calls and replies without bulk data, and every callback break, are
// under 256 bytes. The two produce the same bytes at every length
// (TestSmallCTRMatchesStdlib).
const smallRecord = 256

// ctrStream returns the CTR keystream for a record of n bytes under nonce: st
// itself, stepping the counter block, when the record is small, and the
// stdlib's stream otherwise.
func (st *recordState) ctrStream(nonce []byte, n int) cipher.Stream {
	if n > smallRecord {
		return cipher.NewCTR(st.block, nonce)
	}
	copy(st.ctr[:], nonce)
	st.used = len(st.ks)
	return st
}

// XORKeyStream implements cipher.Stream exactly as cipher.NewCTR's does:
// the 16-byte counter block starts at the nonce and is incremented as one
// big-endian integer for each block of keystream.
func (st *recordState) XORKeyStream(dst, src []byte) {
	for len(src) > 0 {
		if st.used == len(st.ks) {
			st.block.Encrypt(st.ks[:], st.ctr[:])
			for i := len(st.ctr) - 1; i >= 0; i-- {
				st.ctr[i]++
				if st.ctr[i] != 0 {
					break
				}
			}
			st.used = 0
		}
		n := subtle.XORBytes(dst, src, st.ks[st.used:])
		st.used += n
		dst, src = dst[n:], src[n:]
	}
}

// tag appends HMAC(macKey, body) to out.
func (st *recordState) tag(body, out []byte) []byte {
	st.h.Reset()
	st.h.Write(body)
	return st.h.Sum(out)
}

// ErrNonceExhausted is returned by SealFrame when the Box has sealed 2^32-1
// records: one more would repeat a nonce under the same key. The connection
// must be torn down and re-established, which yields a fresh session key.
var ErrNonceExhausted = errors.New("secure: nonce counter exhausted")

// nextNonce writes the next record's nonce into nonce[:nonceSize], taking
// exactly one counter step whether or not anything is later written with it,
// so an abandoned record's nonce is never handed out again.
func (b *Box) nextNonce(nonce []byte) error {
	ctr := b.nonceCtr.Add(1)
	if ctr>>32 != 0 {
		return ErrNonceExhausted
	}
	copy(nonce, b.noncePrefix[:])
	binary.BigEndian.PutUint32(nonce[8:12], uint32(ctr))
	binary.BigEndian.PutUint32(nonce[12:16], 0)
	return nil
}

// Seal encrypts and authenticates the plaintext made of parts in turn,
// returning nonce||ct||tag: one record under one CTR stream, the same bytes
// as sealing the parts joined, which are never joined. It panics when the
// nonce counter is exhausted: its callers are the simulator, whose
// connections never approach 2^32 records, and the four-message handshake.
// The real transport seals with SealFrame, which reports exhaustion as an
// error instead.
func (b *Box) Seal(parts ...[]byte) []byte {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	out := make([]byte, nonceSize+n, nonceSize+n+tagSize)
	nonce := out[:nonceSize]
	if err := b.nextNonce(nonce); err != nil {
		panic(err.Error())
	}
	st := b.states.Get().(*recordState)
	defer b.states.Put(st)
	stream, ct := st.ctrStream(nonce, n), out[nonceSize:]
	for _, part := range parts {
		stream.XORKeyStream(ct[:len(part)], part)
		ct = ct[len(part):]
	}
	return st.tag(out, out)
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
// encrypted chunk by chunk through a pooled buffer under one nonce, one CTR
// stream and one HMAC (encrypt-then-MAC over nonce||ct, as Seal), and each
// chunk goes to w as soon as it is full. The pooled buffer only ever holds
// ciphertext.
//
// An error means w may have received part of a frame: the caller must
// abandon the stream. head and bulk are only read.
func (b *Box) SealFrame(w io.Writer, head, bulk []byte) error {
	bp := sealBufs.Get().(*[sealChunk]byte)
	defer sealBufs.Put(bp)
	buf := bp[:]
	wire.PutFrameHeader(buf, len(head)+len(bulk)+Overhead)
	nonce := buf[wire.FrameHeaderSize : wire.FrameHeaderSize+nonceSize]
	if err := b.nextNonce(nonce); err != nil {
		return err
	}
	st := b.states.Get().(*recordState)
	defer b.states.Put(st)
	stream := st.ctrStream(nonce, len(head)+len(bulk))
	m := st.h
	m.Reset()

	// buf[:fill] is output not yet written; buf[macFrom:fill] of it is not
	// yet MACed (the length prefix never is).
	macFrom, fill := wire.FrameHeaderSize, wire.FrameHeaderSize+nonceSize
	for _, src := range [2][]byte{head, bulk} {
		for len(src) > 0 {
			if fill == len(buf) {
				m.Write(buf[macFrom:])
				if _, err := w.Write(buf); err != nil {
					return err
				}
				macFrom, fill = 0, 0
			}
			n := min(len(src), len(buf)-fill)
			stream.XORKeyStream(buf[fill:fill+n], src[:n])
			fill += n
			src = src[n:]
		}
	}
	m.Write(buf[macFrom:fill])
	if len(buf)-fill < tagSize {
		if _, err := w.Write(buf[:fill]); err != nil {
			return err
		}
		fill = 0
	}
	_, err := w.Write(m.Sum(buf[:fill]))
	return err
}

// verify authenticates a record produced by Seal or SealFrame in constant
// time and returns its nonce and ciphertext, both aliasing sealed.
func (st *recordState) verify(sealed []byte) (nonce, ct []byte, err error) {
	if len(sealed) < Overhead {
		return nil, nil, ErrBadSeal
	}
	body := sealed[:len(sealed)-tagSize]
	tag := sealed[len(sealed)-tagSize:]
	if subtle.ConstantTimeCompare(st.tag(body, st.sum[:0]), tag) != 1 {
		return nil, nil, ErrBadSeal
	}
	return body[:nonceSize], body[nonceSize:], nil
}

// Open authenticates and decrypts a record into a fresh buffer, leaving
// sealed untouched. The simulator needs exactly that: its at-most-once reply
// cache and the fault plane's duplicate delivery hand the same sealed slice
// to Open more than once.
func (b *Box) Open(sealed []byte) ([]byte, error) {
	st := b.states.Get().(*recordState)
	defer b.states.Put(st)
	nonce, ct, err := st.verify(sealed)
	if err != nil {
		return nil, err
	}
	plain := make([]byte, len(ct))
	st.ctrStream(nonce, len(ct)).XORKeyStream(plain, ct)
	return plain, nil
}

// OpenInPlace authenticates sealed and only then decrypts it where it lies,
// returning the plaintext as a sub-slice of sealed. On error not one byte of
// sealed has been changed, so a forged record is never turned into
// attacker-chosen plaintext. The caller must own sealed and must not open it
// again: after success it no longer verifies.
func (b *Box) OpenInPlace(sealed []byte) ([]byte, error) {
	st := b.states.Get().(*recordState)
	defer b.states.Put(st)
	nonce, ct, err := st.verify(sealed)
	if err != nil {
		return nil, err
	}
	st.ctrStream(nonce, len(ct)).XORKeyStream(ct, ct)
	return ct, nil
}

// InSequence reports whether sealed, a record that has just authenticated
// under b's key (OpenInPlace leaves its nonce as it was), is the next record
// the far side of b's session sent. Both directions share the session key, so
// the tag cannot tell a fresh record from one of the far side's replayed or
// one of this side's reflected back; the nonce can. The far side's first
// record fixes its 8-byte prefix, which must differ from b's own, and every
// later record must carry that prefix and exactly the next counter. A false
// answer changes nothing; the caller drops the connection, as for a bad tag.
//
// It keeps the far side's place in b, so the session's one reader calls it,
// once per record, in the order the records arrive. The simulator's Open,
// which its fault plane and reply cache feed duplicates on purpose, does not.
func (b *Box) InSequence(sealed []byte) bool {
	if len(sealed) < nonceSize {
		return false
	}
	prefix := [8]byte(sealed[:8])
	ctr := binary.BigEndian.Uint32(sealed[8:12])
	if binary.BigEndian.Uint32(sealed[12:16]) != 0 {
		return false
	}
	if b.farCtr == 0 {
		if prefix == b.noncePrefix || ctr == 0 {
			return false
		}
		b.farPrefix = prefix
	} else if prefix != b.farPrefix || ctr != b.farCtr+1 {
		return false
	}
	b.farCtr = ctr
	return true
}
