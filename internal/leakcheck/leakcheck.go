// Package leakcheck is a TestMain-level goroutine-leak guard for packages
// whose tests start servers and caches: anything that
// outlives its Close is a leak, and a leaked goroutine in one test poisons
// the timing of every later one.
//
// Usage, in a package's main_test.go:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Main snapshots the goroutine count before the tests run, runs them, and
// then requires the count to return to the baseline, giving stragglers a
// settling window first (connection teardown and t.Cleanup goroutines
// finish asynchronously). On failure it prints the full stack dump of every
// live goroutine — the diff against the baseline is exactly the goroutines
// whose stacks name the test that started them — and fails the test binary.
//
// Built on runtime.NumGoroutine and runtime.Stack only, so it runs under
// -race and -shuffle with no extra dependencies.
package leakcheck

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleRetries x settleDelay bounds how long stragglers may take to exit
// after the last test completes.
const (
	settleRetries = 100
	settleDelay   = 10 * time.Millisecond
)

// Main wraps m.Run with the leak check; call it from TestMain and nothing
// else. It does not return.
func Main(m *testing.M) {
	if fuzzing() {
		// The fuzz coordinator and its workers keep harness goroutines
		// (signal handler, worker RPC) alive past any settling window; a
		// baseline diff would only ever measure the harness. The seed-corpus
		// runs inside plain `go test` are still covered.
		os.Exit(m.Run())
	}
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		code = check(os.Stderr, base)
	}
	os.Exit(code)
}

// fuzzing reports whether this binary was invoked in fuzzing mode
// (`go test -fuzz` hands the binary -test.fuzz/-test.fuzzworker flags).
func fuzzing() bool {
	for _, a := range os.Args[1:] {
		if strings.HasPrefix(a, "-test.fuzz") || strings.HasPrefix(a, "--test.fuzz") {
			return true
		}
	}
	return false
}

// check waits for the goroutine count to settle back to the baseline and
// returns the exit code, writing the stack dump to w on failure.
func check(w io.Writer, base int) int {
	for i := 0; i < settleRetries; i++ {
		if runtime.NumGoroutine() <= base {
			return 0
		}
		//itcvet:allow wallclock -- test harness settling delay; real goroutines exit in real time
		time.Sleep(settleDelay)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	fmt.Fprintf(w,
		"leakcheck: %d goroutines still live at exit (baseline %d); something outlived its Close.\n%s\n",
		runtime.NumGoroutine(), base, buf[:n])
	return 1
}
