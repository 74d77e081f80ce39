package leakcheck

import (
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestCheckPassesWhenSettled: the baseline itself is not a leak.
func TestCheckPassesWhenSettled(t *testing.T) {
	if got := check(io.Discard, runtime.NumGoroutine()); got != 0 {
		t.Fatalf("check on a settled process = %d, want 0", got)
	}
}

// TestCheckFlagsLeak: a goroutine parked past the settling window fails the
// check and its stack appears in the dump.
func TestCheckFlagsLeak(t *testing.T) {
	base := settledCount()
	stop := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-stop
	}()
	<-started
	defer func() {
		close(stop)
		// Return only once the goroutine has exited: one still exiting would
		// count in the next run's baseline, and that run's leak would go
		// unseen.
		if check(io.Discard, base) != 0 {
			t.Error("the parked goroutine did not exit")
		}
	}()
	var dump strings.Builder
	if got := check(&dump, base); got == 0 {
		t.Fatal("check missed a parked goroutine")
	}
	if !strings.Contains(dump.String(), "TestCheckFlagsLeak") {
		t.Fatalf("stack dump does not name the leaking test:\n%s", dump.String())
	}
}

// settledCount is the goroutine count once any goroutine that was on its way
// out has gone: an earlier test's goroutine can still be exiting as this one
// starts — the testing package's own, after it has reported — and a
// baseline that counted it would hide the leak the test checks for. Such a
// goroutine can sit runnable on an idle processor; a collection restarts
// the world with a thread for every processor that has work.
func settledCount() int {
	n := runtime.NumGoroutine()
	for range 3 {
		runtime.GC()
		n = min(n, runtime.NumGoroutine())
	}
	return n
}

// TestFuzzingDetection: the check stands down for fuzz invocations, whose
// coordinator goroutines never settle.
func TestFuzzingDetection(t *testing.T) {
	saved := os.Args
	defer func() { os.Args = saved }()
	os.Args = []string{"pkg.test", "-test.run=NONE"}
	if fuzzing() {
		t.Fatal("plain run misdetected as fuzzing")
	}
	os.Args = []string{"pkg.test", "-test.fuzz=^FuzzX$", "-test.fuzztime=10s"}
	if !fuzzing() {
		t.Fatal("-test.fuzz not detected")
	}
	os.Args = []string{"pkg.test", "-test.fuzzworker"}
	if !fuzzing() {
		t.Fatal("-test.fuzzworker not detected")
	}
}
