package venus_test

import (
	"runtime"
	"testing"
	"time"

	"itcfs/internal/rpc"
	"itcfs/internal/secure"
	"itcfs/internal/trace"
	"itcfs/internal/unixfs"
	"itcfs/internal/venus"
	"itcfs/internal/vice"
	"itcfs/internal/virtue"
)

// Venus over the real TCP transport: the same cache-manager logic the
// simulator evaluates, talking to the same Vice server code, through
// authenticated encrypted rpc.Peer connections — the server booted and
// served (tcp_helpers_test.go), and the workstations assembled and
// connected, by the calls cmd/itcfsd and cmd/itcfs make. (The root package's
// real-cell tests cover what a connection's end releases and the batched
// break.)

// tcpWorkstation is a full workstation logged in as the operator — the one
// account a fresh cell has, and one that may write anywhere.
func tcpWorkstation(t *testing.T, addr string, mode vice.Mode, password string) *virtue.FS {
	t.Helper()
	callbacks := rpc.NewServer()
	fs := virtue.NewWorkstation(venus.Config{
		Mode:       mode,
		Machine:    "tcp-ws",
		Local:      unixfs.New(nil),
		HomeServer: "tcp0",
		Connect:    venus.PeerConnector(venus.TCPDial(t, addr), "operator", secure.DeriveKey("operator", password), callbacks),
	}, callbacks)
	fs.Venus().Login("operator")
	return fs
}

func write(t *testing.T, fs *virtue.FS, path, contents string) {
	t.Helper()
	if err := fs.WriteFile(nil, path, []byte(contents)); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

func read(t *testing.T, fs *virtue.FS, path string) string {
	t.Helper()
	data, err := fs.ReadFile(nil, path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(data)
}

func TestVenusOverTCPRoundTrip(t *testing.T) {
	for _, mode := range []vice.Mode{vice.Prototype, vice.Revised} {
		t.Run(mode.String(), func(t *testing.T) {
			fs := tcpWorkstation(t, venus.TCPServer(t, mode), mode, "pw")
			write(t, fs, "/vice/doc", "over real TCP with real encryption")
			if got := read(t, fs, "/vice/doc"); got != "over real TCP with real encryption" {
				t.Fatalf("read %q", got)
			}
			if err := fs.Mkdir(nil, "/vice/dir", 0o755); err != nil {
				t.Fatal(err)
			}
			entries, err := fs.ReadDir(nil, "/vice")
			if err != nil || len(entries) != 2 {
				t.Fatalf("ReadDir: %+v %v", entries, err)
			}
		})
	}
}

func TestVenusOverTCPCallbackBreak(t *testing.T) {
	addr := venus.TCPServer(t, vice.Revised)
	reader := tcpWorkstation(t, addr, vice.Revised, "pw")
	writer := tcpWorkstation(t, addr, vice.Revised, "pw")

	write(t, reader, "/vice/shared", "v1")
	if got := read(t, reader, "/vice/shared"); got != "v1" {
		t.Fatalf("warm read %q", got)
	}
	// The writer stores a new version over its own TCP connection; the
	// server breaks the reader's callback over the reader's.
	write(t, writer, "/vice/shared", "v2")
	if got := read(t, reader, "/vice/shared"); got != "v2" {
		t.Fatalf("after remote update: %q", got)
	}
	if reader.Venus().Stats().CallbackBreaks == 0 {
		t.Fatal("no callback break delivered over TCP")
	}
}

func TestVenusOverTCPWrongPassword(t *testing.T) {
	fs := tcpWorkstation(t, venus.TCPServer(t, vice.Revised), vice.Revised, "wrong")
	if _, err := fs.Stat(nil, "/vice"); err == nil {
		t.Fatal("operations succeeded with a wrong password")
	}
}

// TestVenusOverTCPClockRuns: a real workstation keeps time by the clock its
// calls are timed by, so over a Peer a callback promise ages past
// CallbackTTL and an open's latency is measured. A revised reader with a
// 1 ms TTL must revalidate a read made 5 ms after its first, and its
// open-latency histogram must have seen a positive time. A Venus that reads
// 0 for now outside the simulator fails both: the second read is a hit with
// no TestValid, and every open latency is 0.
func TestVenusOverTCPClockRuns(t *testing.T) {
	addr := venus.TCPServer(t, vice.Revised)
	write(t, tcpWorkstation(t, addr, vice.Revised, "pw"), "/vice/f", "promised")
	reg := trace.NewRegistry()
	callbacks := rpc.NewServer()
	reader := virtue.NewWorkstation(venus.Config{
		Mode:        vice.Revised,
		Machine:     "tcp-ws-ttl",
		Local:       unixfs.New(nil),
		HomeServer:  "tcp0",
		Connect:     venus.PeerConnector(venus.TCPDial(t, addr), "operator", secure.DeriveKey("operator", "pw"), callbacks),
		CallbackTTL: time.Millisecond,
		Metrics:     reg,
	}, callbacks)
	reader.Venus().Login("operator")

	read(t, reader, "/vice/f")
	before := reader.Venus().Stats().Validations
	// Outwait the TTL on the clock Venus keeps, which is also the one under
	// test.
	for start := rpc.Clock(nil); rpc.Clock(nil).Sub(start) < 5*time.Millisecond; {
		runtime.Gosched()
	}
	if got := read(t, reader, "/vice/f"); got != "promised" {
		t.Fatalf("second read %q", got)
	}
	if n := reader.Venus().Stats().Validations - before; n != 1 {
		t.Errorf("second read made %d TestValid calls, want 1: its promise had outlived the 1 ms TTL", n)
	}
	if max := reg.Histogram(trace.MetricVenusOpenLatency).State("").Max; max <= 0 {
		t.Errorf("open latency max = %v, want > 0", max)
	}
}
