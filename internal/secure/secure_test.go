package secure

import (
	"bytes"
	"testing"
	"testing/quick"

	"itcfs/internal/wire"
)

func TestDeriveKeyDeterministic(t *testing.T) {
	a := DeriveKey("satya", "hunter2")
	b := DeriveKey("satya", "hunter2")
	if a != b {
		t.Fatal("same user/password derived different keys")
	}
}

func TestDeriveKeySaltsByUser(t *testing.T) {
	a := DeriveKey("satya", "hunter2")
	b := DeriveKey("howard", "hunter2")
	if a == b {
		t.Fatal("different users with same password derived equal keys")
	}
}

func TestDeriveKeyPasswordSensitive(t *testing.T) {
	a := DeriveKey("satya", "hunter2")
	b := DeriveKey("satya", "hunter3")
	if a == b {
		t.Fatal("different passwords derived equal keys")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	k, err := NewSessionKey()
	if err != nil {
		t.Fatal(err)
	}
	box := NewBox(k)
	for _, plain := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("vice"), 1000)} {
		sealed := box.Seal(plain)
		if len(sealed) != len(plain)+Overhead {
			t.Fatalf("sealed length %d, want %d", len(sealed), len(plain)+Overhead)
		}
		got, err := box.Open(sealed)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("round trip mismatch: %q != %q", got, plain)
		}
	}
}

func TestSealNoncesDiffer(t *testing.T) {
	box := NewBox(DeriveKey("u", "p"))
	a := box.Seal([]byte("same plaintext"))
	b := box.Seal([]byte("same plaintext"))
	if bytes.Equal(a, b) {
		t.Fatal("two seals of the same plaintext produced identical records")
	}
}

func TestOpenDetectsTampering(t *testing.T) {
	box := NewBox(DeriveKey("u", "p"))
	sealed := box.Seal([]byte("the store request"))
	for _, i := range []int{0, nonceSize + 3, len(sealed) - 1} {
		mutated := append([]byte(nil), sealed...)
		mutated[i] ^= 0x01
		if _, err := box.Open(mutated); err != ErrBadSeal {
			t.Errorf("flip at %d: err = %v, want ErrBadSeal", i, err)
		}
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	sealed := NewBox(DeriveKey("u", "right")).Seal([]byte("secret"))
	if _, err := NewBox(DeriveKey("u", "wrong")).Open(sealed); err != ErrBadSeal {
		t.Fatalf("err = %v, want ErrBadSeal", err)
	}
}

func TestOpenRejectsShortRecord(t *testing.T) {
	box := NewBox(DeriveKey("u", "p"))
	for _, n := range []int{0, 1, Overhead - 1} {
		if _, err := box.Open(make([]byte, n)); err != ErrBadSeal {
			t.Errorf("len %d: err = %v, want ErrBadSeal", n, err)
		}
	}
}

func TestNonceIncrement(t *testing.T) {
	var n nonce
	n[nonceLen-1] = 0xFF
	inc := n.incremented()
	if inc[nonceLen-1] != 0 || inc[nonceLen-2] != 1 {
		t.Fatalf("carry failed: %v", inc)
	}
	var all nonce
	for i := range all {
		all[i] = 0xFF
	}
	wrapped := all.incremented()
	for i := range wrapped {
		if wrapped[i] != 0 {
			t.Fatalf("wraparound failed: %v", wrapped)
		}
	}
}

func lookupDB(db map[string]Key) KeyLookup {
	return func(u string) (Key, bool) {
		k, ok := db[u]
		return k, ok
	}
}

func TestHandshakeSuccess(t *testing.T) {
	key := DeriveKey("satya", "pw")
	client := NewClientHandshake("satya", key)
	server := NewServerHandshake(lookupDB(map[string]Key{"satya": key}))

	challenge, err := server.Challenge(client.Hello())
	if err != nil {
		t.Fatalf("Challenge: %v", err)
	}
	proof, err := client.Proof(challenge)
	if err != nil {
		t.Fatalf("Proof: %v", err)
	}
	final, serverKey, err := server.Complete(proof)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	clientKey, err := client.Session(final)
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if clientKey != serverKey {
		t.Fatal("session keys disagree")
	}
	if server.User() != "satya" {
		t.Fatalf("User = %q", server.User())
	}
	// The session key actually works for record sealing both ways, each end
	// with its own role.
	cb, sb := NewSessionBox(clientKey, Dialer), NewSessionBox(serverKey, Acceptor)
	msg, err := sb.OpenNext(cb.Seal([]byte("fetch /vice/usr/satya/paper.mss")))
	if err != nil || string(msg) != "fetch /vice/usr/satya/paper.mss" {
		t.Fatalf("session channel broken: %v %q", err, msg)
	}
	msg, err = cb.OpenNext(sb.Seal([]byte("ok")))
	if err != nil || string(msg) != "ok" {
		t.Fatalf("session channel broken back: %v %q", err, msg)
	}
}

// TestHandshakeNoncesAreDistinct: every login of a user seals the
// handshake's four messages under the same long-term key, from Boxes of
// their own, so nothing but the nonces' randomness keeps them apart. Ten
// thousand handshakes by one user must seal forty thousand records under
// pairwise distinct nonces.
func TestHandshakeNoncesAreDistinct(t *testing.T) {
	const logins = 10000
	key := DeriveKey("satya", "pw")
	lookup := lookupDB(map[string]Key{"satya": key})
	seen := make(map[[nonceSize]byte]bool, 4*logins)
	note := func(record []byte) {
		nonce := [nonceSize]byte(record)
		if seen[nonce] {
			t.Fatalf("after %d records, nonce %x sealed twice under the user's key", len(seen), nonce)
		}
		seen[nonce] = true
	}
	for i := 0; i < logins; i++ {
		client, server := NewClientHandshake("satya", key), NewServerHandshake(lookup)
		hello := client.Hello()
		d := wire.NewDecoder(hello)
		_ = d.String() // the user, in the clear
		note(d.Bytes())
		challenge, err := server.Challenge(hello)
		if err != nil {
			t.Fatal(err)
		}
		note(challenge)
		proof, err := client.Proof(challenge)
		if err != nil {
			t.Fatal(err)
		}
		note(proof)
		final, _, err := server.Complete(proof)
		if err != nil {
			t.Fatal(err)
		}
		note(final)
	}
}

func TestHandshakeWrongPassword(t *testing.T) {
	server := NewServerHandshake(lookupDB(map[string]Key{"satya": DeriveKey("satya", "right")}))
	client := NewClientHandshake("satya", DeriveKey("satya", "wrong"))
	if _, err := server.Challenge(client.Hello()); err != ErrAuthFailed {
		t.Fatalf("Challenge err = %v, want ErrAuthFailed", err)
	}
}

func TestHandshakeUnknownUser(t *testing.T) {
	server := NewServerHandshake(lookupDB(map[string]Key{}))
	client := NewClientHandshake("ghost", DeriveKey("ghost", "pw"))
	if _, err := server.Challenge(client.Hello()); err != ErrAuthFailed {
		t.Fatalf("Challenge err = %v, want ErrAuthFailed", err)
	}
}

// An impostor server (no knowledge of the key) cannot convince the client:
// the client rejects a challenge built with the wrong key.
func TestHandshakeImpostorServer(t *testing.T) {
	realKey := DeriveKey("satya", "pw")
	client := NewClientHandshake("satya", realKey)
	impostorKey := DeriveKey("satya", "guess")
	impostor := NewServerHandshake(lookupDB(map[string]Key{"satya": impostorKey}))
	challenge, err := impostor.Challenge(client.Hello())
	if err == nil {
		// The impostor can only produce a challenge if Open happened to pass,
		// which it cannot with a different key.
		if _, err := client.Proof(challenge); err != ErrAuthFailed {
			t.Fatalf("client accepted impostor challenge: %v", err)
		}
	}
}

func TestHandshakeTamperedChallenge(t *testing.T) {
	key := DeriveKey("u", "p")
	client := NewClientHandshake("u", key)
	server := NewServerHandshake(lookupDB(map[string]Key{"u": key}))
	challenge, err := server.Challenge(client.Hello())
	if err != nil {
		t.Fatal(err)
	}
	challenge[5] ^= 0xFF
	if _, err := client.Proof(challenge); err != ErrAuthFailed {
		t.Fatalf("Proof err = %v, want ErrAuthFailed", err)
	}
}

func TestHandshakeReplayedProofFails(t *testing.T) {
	key := DeriveKey("u", "p")
	// First, a full legitimate handshake; capture the proof.
	c1 := NewClientHandshake("u", key)
	s1 := NewServerHandshake(lookupDB(map[string]Key{"u": key}))
	ch1, _ := s1.Challenge(c1.Hello())
	proof1, _ := c1.Proof(ch1)
	if _, _, err := s1.Complete(proof1); err != nil {
		t.Fatal(err)
	}
	// Replay the captured proof against a new server handshake (fresh Ns):
	// it must fail because the server nonce differs.
	c2 := NewClientHandshake("u", key)
	s2 := NewServerHandshake(lookupDB(map[string]Key{"u": key}))
	if _, err := s2.Challenge(c2.Hello()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Complete(proof1); err != ErrAuthFailed {
		t.Fatalf("replayed proof accepted: %v", err)
	}
}

func TestHandshakeGarbageHello(t *testing.T) {
	server := NewServerHandshake(lookupDB(map[string]Key{}))
	if _, err := server.Challenge([]byte{1, 2, 3}); err != ErrAuthFailed {
		t.Fatalf("err = %v, want ErrAuthFailed", err)
	}
}

func TestCompleteBeforeChallenge(t *testing.T) {
	server := NewServerHandshake(lookupDB(map[string]Key{}))
	if _, _, err := server.Complete([]byte("x")); err != ErrAuthFailed {
		t.Fatalf("err = %v, want ErrAuthFailed", err)
	}
}

// Property: sealed records round-trip for arbitrary plaintexts and never
// authenticate under a different key.
func TestQuickSealOpen(t *testing.T) {
	boxA := NewBox(DeriveKey("a", "a"))
	boxB := NewBox(DeriveKey("b", "b"))
	f := func(plain []byte) bool {
		sealed := boxA.Seal(plain)
		if _, err := boxB.Open(bytes.Clone(sealed)); err != ErrBadSeal {
			return false
		}
		got, err := boxA.Open(sealed)
		return err == nil && bytes.Equal(got, plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
