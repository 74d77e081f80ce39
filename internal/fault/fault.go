// Package fault is the deterministic fault plane of the simulation: a
// seed-driven injector that drops, duplicates, delays and corrupts
// individual frames as they pass through netsim, plus the bookkeeping that
// lets a chaos harness replay the exact same fault schedule from a seed and
// compare invariant reports byte-for-byte across runs.
//
// The injector is consulted synchronously from netsim.Send, inside the
// single-threaded simulation, so it needs no locking; it must not be shared
// with real (TCP) transports.
package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"itcfs/internal/netsim"
	"itcfs/internal/sim"
)

// Config sets the per-frame fault probabilities. Probabilities are
// independent: one frame can be both delayed and corrupted. The zero value
// injects nothing.
type Config struct {
	Seed        int64
	DropProb    float64       // lose the frame
	DupProb     float64       // deliver the frame twice
	CorruptProb float64       // flip bits in the wire payload
	DelayProb   float64       // hold the frame up to MaxDelay
	MaxDelay    time.Duration // upper bound for injected delay
}

// Injector implements netsim.FaultInjector with a seeded PRNG. The same
// seed against the same deterministic workload yields a byte-identical
// fault schedule (see Report).
type Injector struct {
	cfg    Config
	rng    *rand.Rand
	active bool

	drops    int64
	dups     int64
	corrupts int64
	delays   int64
	decided  int64

	trace strings.Builder
}

// New returns an inactive injector; call SetActive(true) to start injecting.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetActive turns fault injection on or off. While inactive, Decide returns
// the zero action without consuming randomness, so activation windows do not
// perturb the schedule generated inside them.
func (i *Injector) SetActive(active bool) { i.active = active }

// Decide implements netsim.FaultInjector.
func (i *Injector) Decide(now sim.Time, src, dst netsim.NodeID, size int) netsim.FaultAction {
	if !i.active {
		return netsim.FaultAction{}
	}
	i.decided++
	var act netsim.FaultAction
	var what []string
	if i.cfg.DropProb > 0 && i.rng.Float64() < i.cfg.DropProb {
		act.Drop = true
		i.drops++
		what = append(what, "drop")
	}
	if i.cfg.DupProb > 0 && i.rng.Float64() < i.cfg.DupProb {
		act.Duplicate = true
		i.dups++
		what = append(what, "dup")
	}
	if i.cfg.CorruptProb > 0 && i.rng.Float64() < i.cfg.CorruptProb {
		act.Corrupt = true
		i.corrupts++
		what = append(what, "corrupt")
	}
	if i.cfg.DelayProb > 0 && i.cfg.MaxDelay > 0 && i.rng.Float64() < i.cfg.DelayProb {
		act.Delay = time.Duration(i.rng.Int63n(int64(i.cfg.MaxDelay))) + 1
		i.delays++
		what = append(what, fmt.Sprintf("delay=%v", act.Delay))
	}
	if len(what) > 0 {
		fmt.Fprintf(&i.trace, "%12v %d->%d %dB %s\n", time.Duration(now), src, dst, size, strings.Join(what, "+"))
	}
	return act
}

// Corrupt implements netsim.FaultInjector: it flips one to three bits at
// seeded positions, simulating in-flight damage that the receiver's MAC (or
// frame checksum) must catch.
func (i *Injector) Corrupt(wire []byte) {
	if len(wire) == 0 {
		return
	}
	for n := 1 + i.rng.Intn(3); n > 0; n-- {
		pos := i.rng.Intn(len(wire))
		wire[pos] ^= 1 << uint(i.rng.Intn(8))
	}
}

// Report returns the full fault schedule, one line per injected fault, plus
// a summary. Two runs with the same seed and workload produce identical
// reports; the chaos harness asserts exactly that.
func (i *Injector) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault schedule (seed=%d)\n", i.cfg.Seed)
	b.WriteString(i.trace.String())
	fmt.Fprintf(&b, "summary: examined=%d drops=%d dups=%d corrupts=%d delays=%d\n",
		i.decided, i.drops, i.dups, i.corrupts, i.delays)
	return b.String()
}
