package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"itcfs/internal/leakcheck"
	"itcfs/internal/vice"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMain fails the package if any test leaves a goroutine running: the
// test server, a connection it serves, or one the shell did not close on its
// way out.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// serve stands up what itcfsd serves, from the pieces itcfsd is made of, on a
// loopback listener, and returns its address and a function that closes,
// from the server's end, every connection accepted so far.
func serve(t *testing.T) (addr string, hangUp func()) {
	t.Helper()
	srv, _, err := vice.Boot(vice.Config{Name: "server0", Mode: vice.Revised}, "secret")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &listener{Listener: nl}
	served := make(chan struct{})
	go func() {
		srv.Serve(l, nil, nil)
		close(served)
	}()
	t.Cleanup(func() { l.Close(); <-served })
	return l.Addr().String(), l.hangUp
}

// listener keeps the connections it accepts, so a test can hang them up.
type listener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *listener) hangUp() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
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
	addr, _ := serve(t)
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
		t.Errorf("the scripted session diverged from %s:\n%s", path, lineDiff(got, string(want)))
	}
}

// lineDiff says where got parts from want: how many lines differ and the
// first few of them with their line numbers, rather than both documents in
// full.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(past the end)"
	}
	var b strings.Builder
	differ := 0
	for i := 0; i < max(len(g), len(w)); i++ {
		if at(g, i) == at(w, i) {
			continue
		}
		if differ++; differ <= 5 {
			fmt.Fprintf(&b, "line %d:\n  got:  %s\n  want: %s\n", i+1, at(g, i), at(w, i))
		}
	}
	fmt.Fprintf(&b, "differing lines: %d", differ)
	return b.String()
}

// TestBadInvocation covers the exits before a connection exists.
func TestBadInvocation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-user", "operator"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("missing password: exit %d, want 2", code)
	}
	// A mode is named exactly, or the shell would run the other design.
	for _, mode := range []string{"Prototype", "bogus"} {
		errb.Reset()
		code := run([]string{"-user", "operator", "-password", "secret", "-mode", mode}, strings.NewReader(""), &out, &errb)
		if code != 2 || !strings.Contains(errb.String(), "unknown mode") {
			t.Errorf("-mode %s: exit %d, stderr %q; want 2 and unknown mode", mode, code, errb.String())
		}
	}
	addr, _ := serve(t)
	errb.Reset()
	code := run([]string{"-addr", addr, "-user", "operator", "-password", "wrong"},
		strings.NewReader("ls\n"), &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "authentication failed") {
		t.Errorf("wrong password: exit %d, stderr %q", code, errb.String())
	}
	if strings.Contains(out.String(), "itcfs> ") {
		t.Errorf("wrong password: the shell prompted: %q", out.String())
	}
}

// TestShellOutlivesADroppedConnection: the server hangs up on the shell
// between two commands, and every later workstation command still works.
// Venus notices the end and redials on its next call, and a command that
// meets the end in a call redials once. Before, the shell held one
// connection for its life, and every later command failed with "rpc:
// connection closed".
func TestShellOutlivesADroppedConnection(t *testing.T) {
	addr, hangUp := serve(t)
	stdin, script := io.Pipe()
	stdout := &promptWriter{prompt: make(chan struct{}, 1)}
	var stderr bytes.Buffer
	code := make(chan int)
	go func() {
		code <- run([]string{"-addr", addr, "-user", "operator", "-password", "secret"}, stdin, stdout, &stderr)
	}()
	await := func() {
		select {
		case <-stdout.prompt:
		case c := <-code:
			t.Fatalf("the shell exited early (%d), stderr %q; its output:\n%s", c, stderr.String(), stdout.String())
		}
	}
	do := func(line string) {
		io.WriteString(script, line+"\n")
		await()
	}
	await()
	do("write /vice/f before")
	do("cat /vice/f")
	hangUp()
	mark := len(stdout.String())
	for _, line := range []string{
		"ls /vice",
		"cat /vice/f",
		"write /vice/f after",
		"cat /vice/f",
		"stat /vice/f",
		"mkdir /vice/d",
		"ls /vice",
	} {
		do(line)
	}
	script.Close()
	if c := <-code; c != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", c, stderr.String())
	}
	after := stdout.String()[mark:]
	if strings.Contains(after, "error:") {
		t.Fatalf("a command failed after the server hung up:\n%s", after)
	}
	for _, want := range []string{"before\n", "after\n", "f: 6 bytes", "d/\n"} {
		if !strings.Contains(after, want) {
			t.Errorf("no %q in what the shell printed after the server hung up:\n%s", want, after)
		}
	}
}

// promptWriter is the shell's stdout, signalling each prompt it prints.
type promptWriter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	prompt chan struct{}
}

func (w *promptWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	n, err := w.buf.Write(b)
	w.mu.Unlock()
	if string(b) == "itcfs> " {
		w.prompt <- struct{}{}
	}
	return n, err
}

func (w *promptWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}
