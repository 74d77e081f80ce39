package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now() //itcvet:allow wallclock -- the benchmark measures real elapsed time by design

// now is the benchmark's only clock read: nanoseconds since process start,
// monotonic.
func now() int64 {
	return int64(time.Since(epoch)) //itcvet:allow wallclock -- the benchmark measures real elapsed time by design
}

// samples is a set of duration samples in nanoseconds.
type samples []int64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the q-quantile (nearest rank) of sorted samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i])
}

// tail picks the highest percentile that still has at least ten samples
// beyond it (the choosing-metrics rule), from p99.9, p99 and p90; with fewer
// than a hundred samples it falls back to the maximum.
func (s samples) tail() (label string, ns float64) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(s))*(1-c.q) >= 10 {
			return c.label, s.quantile(c.q)
		}
	}
	if len(s) == 0 {
		return "max", 0
	}
	return "max", float64(s[len(s)-1])
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// resetPeakRSS restarts the process's peak-RSS counter (ru_maxrss).
func resetPeakRSS() {
	// Linux: writing 5 to clear_refs resets the high-water mark. Best effort.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// residentKiB is the process's resident set right now (/proc/self/statm).
func residentKiB() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return resident * int64(os.Getpagesize()) / 1024
}

// usage is a snapshot of the process-wide costs the end-to-end metrics are
// deltas of.
type usage struct {
	mallocs    uint64
	allocBytes uint64
	maxRSSKiB  int64
}

// cpuNow is the process's CPU time so far, user and system apart: user time
// is the program's own work; system time on this sandbox is mostly the
// kernel's share of fsync, which swells whenever the journal is under
// pressure.
func cpuNow() (user, sys int64) {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano(), ru.Stime.Nano()
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		maxRSSKiB:  ru.Maxrss,
	}
}

func sortedF(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
