package main

import (
	"bytes"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"itcfs/internal/vice"
)

var update = flag.Bool("update", false, "rewrite golden files")

// serve stands up what itcfsd serves, from the pieces itcfsd is made of, on a
// loopback listener, and returns its address.
func serve(t *testing.T) string {
	t.Helper()
	srv, _, err := vice.Boot(vice.Config{Name: "server0", Mode: vice.Revised, ProtAuthority: true}, "secret")
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeConn(conn, nil)
			}()
		}
	}()
	t.Cleanup(func() { l.Close(); wg.Wait() })
	return l.Addr().String()
}

// session runs one shell, start to end-of-input, against addr.
func session(t *testing.T, addr, user, password, script string) string {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"-addr", addr, "-user", user, "-password", password},
		strings.NewReader(script), &out, &errb)
	if code != 0 || errb.Len() != 0 {
		t.Fatalf("%s's session: exit %d, stderr %q", user, code, errb.String())
	}
	return "== " + user + " ==\n" + strings.ReplaceAll(out.String(), addr, "ADDR") + "\n"
}

const operatorScript = `adduser satya pw
ls /vice
mkdir /vice/usr/satya/docs
write /vice/usr/satya/docs/plan ship the revised design
cat /vice/usr/satya/docs/plan
ls /vice/usr/satya
stat /vice/usr/satya/docs/plan
chmod 600 /vice/usr/satya/docs/plan
stat /vice/usr/satya/docs/plan
grant /vice/usr/satya/docs satya rl
deny /vice/usr/satya/docs System:AnyUser r
acl /vice/usr/satya/docs
lock /vice/usr/satya/docs/plan -x
unlock /vice/usr/satya/docs/plan
unlock /vice/usr/satya/docs/plan
adduser howard pw
adduser satya again
ls /vice/usr
volstat 1
volstat 2
volstat 9
salvage
salvage 2
stats
frobnicate
quit
`

const satyaScript = `ls /vice/usr/satya
cat /vice/usr/satya/docs/plan
write /vice/usr/satya/notes my own file
cat /vice/usr/satya/notes
mkdir /vice/usr/howard/mine
write /tmp/scratch local only
stat /tmp/scratch
adduser eve pw
salvage
volstat 2
stats
`

// TestScriptedSession pins what the shell prints: an operator provisions two
// users and exercises every command against an in-process server, then one
// of the new users logs in and meets what the operator left, including the
// refusals. Run with -update to re-record after an intended change.
func TestScriptedSession(t *testing.T) {
	addr := serve(t)
	got := session(t, addr, "operator", "secret", operatorScript) +
		session(t, addr, "satya", "pw", satyaScript)
	path := filepath.Join("testdata", "session.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("the scripted session diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestBadInvocation covers the exits before a connection exists.
func TestBadInvocation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-user", "operator"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("missing password: exit %d, want 2", code)
	}
	addr := serve(t)
	errb.Reset()
	code := run([]string{"-addr", addr, "-user", "operator", "-password", "wrong"},
		strings.NewReader("ls\n"), &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "authentication failed") {
		t.Errorf("wrong password: exit %d, stderr %q", code, errb.String())
	}
}
