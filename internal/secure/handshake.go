package secure

import (
	"crypto/rand"
	"crypto/subtle"
	"errors"
	"fmt"

	"itcfs/internal/wire"
)

// The authentication handshake of Section 3.4. Vice and Virtue start as
// mutually suspicious parties sharing the user's authentication key; neither
// trusts the other's claimed identity until the challenge exchange
// completes. Four messages:
//
//	1. C -> S  user (clear) || Seal_K(Nc)
//	2. S -> C  Seal_K(Nc+1 || Ns)            server proves knowledge of K
//	3. C -> S  Seal_K(Ns+1)                  client proves knowledge of K
//	4. S -> C  Seal_K(session key)           fresh per-session key
//
// All further traffic is sealed under the session key, limiting exposure of
// the long-term key (per-session encryption keys, §3.4).

// ErrAuthFailed is returned when a handshake step fails verification: an
// unknown user, a wrong key, a replayed or tampered message.
var ErrAuthFailed = errors.New("secure: authentication failed")

const nonceLen = 16

type nonce [nonceLen]byte

func newNonce() nonce {
	var n nonce
	if _, err := rand.Read(n[:]); err != nil {
		panic(fmt.Sprintf("secure: nonce: %v", err))
	}
	return n
}

// incremented returns the nonce interpreted as a big-endian integer plus one.
func (n nonce) incremented() nonce {
	out := n
	for i := nonceLen - 1; i >= 0; i-- {
		out[i]++
		if out[i] != 0 {
			break
		}
	}
	return out
}

// ClientHandshake drives the workstation side of the handshake.
type ClientHandshake struct {
	user string
	box  *Box
	nc   nonce
	ns   nonce
}

// NewClientHandshake prepares a handshake for user, whose long-term key is
// key (typically DeriveKey(user, password)).
func NewClientHandshake(user string, key Key) *ClientHandshake {
	return &ClientHandshake{user: user, box: NewBox(key), nc: newNonce()}
}

// Hello produces message 1.
func (c *ClientHandshake) Hello() []byte {
	var e wire.Encoder
	e.String(c.user)
	e.Bytes(c.box.Seal(c.nc[:]))
	return append([]byte(nil), e.Buf()...)
}

// Proof consumes message 2 and produces message 3. A non-nil error means the
// server failed to prove knowledge of the shared key.
func (c *ClientHandshake) Proof(challenge []byte) ([]byte, error) {
	plain, err := c.box.Open(challenge)
	if err != nil || len(plain) != 2*nonceLen {
		return nil, ErrAuthFailed
	}
	wantNc := c.nc.incremented()
	if subtle.ConstantTimeCompare(plain[:nonceLen], wantNc[:]) != 1 {
		return nil, ErrAuthFailed
	}
	copy(c.ns[:], plain[nonceLen:])
	nsPlus := c.ns.incremented()
	return c.box.Seal(nsPlus[:]), nil
}

// Session consumes message 4 and returns the session key.
func (c *ClientHandshake) Session(final []byte) (Key, error) {
	plain, err := c.box.Open(final)
	if err != nil || len(plain) != KeySize {
		return Key{}, ErrAuthFailed
	}
	var k Key
	copy(k[:], plain)
	return k, nil
}

// KeyLookup resolves a user name to its long-term authentication key. It is
// how the server side consults the (replicated) authentication database.
type KeyLookup func(user string) (Key, bool)

// ServerHandshake drives the Vice side of the handshake for one connection.
type ServerHandshake struct {
	lookup KeyLookup
	user   string
	box    *Box
	ns     nonce
}

// NewServerHandshake prepares the server side with the given key database.
func NewServerHandshake(lookup KeyLookup) *ServerHandshake {
	return &ServerHandshake{lookup: lookup}
}

// User returns the identity claimed in Hello. It is authenticated only after
// Complete succeeds.
func (s *ServerHandshake) User() string { return s.user }

// Challenge consumes message 1 and produces message 2. Unknown users and
// undecipherable hellos are both reported as ErrAuthFailed so an attacker
// cannot probe for valid user names.
func (s *ServerHandshake) Challenge(hello []byte) ([]byte, error) {
	d := wire.NewDecoder(hello)
	user := d.String()
	sealed := d.Bytes()
	if d.Close() != nil {
		return nil, ErrAuthFailed
	}
	key, ok := s.lookup(user)
	if !ok {
		// Proceed with a random key: the reply will be garbage, indistinguishable
		// from a wrong password.
		key, _ = NewSessionKey()
	}
	s.user = user
	s.box = NewBox(key)
	plainNc, err := s.box.Open(sealed)
	if err != nil || len(plainNc) != nonceLen {
		return nil, ErrAuthFailed
	}
	var nc nonce
	copy(nc[:], plainNc)
	ncPlus := nc.incremented()
	s.ns = newNonce()
	return s.box.Seal(append(ncPlus[:], s.ns[:]...)), nil
}

// Complete consumes message 3 and produces message 4 plus the session key.
func (s *ServerHandshake) Complete(proof []byte) ([]byte, Key, error) {
	if s.box == nil {
		return nil, Key{}, ErrAuthFailed
	}
	plain, err := s.box.Open(proof)
	if err != nil || len(plain) != nonceLen {
		return nil, Key{}, ErrAuthFailed
	}
	wantNs := s.ns.incremented()
	if subtle.ConstantTimeCompare(plain, wantNs[:]) != 1 {
		return nil, Key{}, ErrAuthFailed
	}
	session, err := NewSessionKey()
	if err != nil {
		return nil, Key{}, err
	}
	return s.box.Seal(session[:]), session, nil
}
