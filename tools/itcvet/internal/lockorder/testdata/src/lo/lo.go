// Package lo exercises the blocking-while-locked check: every class of
// blocking operation under a held mutex, the //itcvet:allowblocking escape
// hatch (used, unused, malformed), and the exemptions (sync.Cond, goroutine
// bodies, select arms, unlocked paths).
package lo

import (
	"io"
	"sim"
	"sync"
)

type A struct {
	mu sync.Mutex // guarded by mu
	n  int        // guarded by mu
}

type Peer struct{}

func (*Peer) Call(op string) error

type Box struct{}

func (*Box) SealFrame(w interface{}, head, bulk []byte) error

type Store struct{}

func (*Store) Commit() error

type File struct{}

func (File) Sync() error

type FS struct{}

func (FS) WriteFileAtomic(name string, data []byte) error

func send(a *A, ch chan int) {
	a.mu.Lock()
	ch <- 1 // want `channel send while A\.mu is held`
	a.mu.Unlock()
}

func sendAllowed(a *A, ch chan int) {
	a.mu.Lock()
	//itcvet:allowblocking capacity-1 channel drained by a dedicated process
	ch <- 1
	a.mu.Unlock()
}

func recv(a *A, ch chan int) {
	a.mu.Lock()
	<-ch // want `channel receive while A\.mu is held`
	a.mu.Unlock()
}

func recvAfterUnlock(a *A, ch chan int) {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
	<-ch // unlocked: no finding
}

func wait(a *A, ch chan int, stop chan struct{}) {
	a.mu.Lock()
	select { // want `select with no default while A\.mu is held`
	case <-ch:
	case <-stop:
	}
	a.mu.Unlock()
}

func poll(a *A, ch chan int) {
	a.mu.Lock()
	select { // a default arm cannot park the holder: no finding
	case <-ch:
	default:
	}
	a.mu.Unlock()
}

func rpc(a *A, p *Peer) {
	a.mu.Lock()
	_ = p.Call("ping") // want `RPC Call while A\.mu is held`
	a.mu.Unlock()
}

func sealFrame(a *A, b *Box) {
	a.mu.Lock()
	_ = b.SealFrame(nil, nil, nil) // want `socket frame I/O \(SealFrame\) while A\.mu is held`
	a.mu.Unlock()
}

// A write into an io.Writer may be a socket's: SealFrame's own writes, under
// the Box's send side, are these.
func stream(a *A, w io.Writer, r io.Reader) {
	a.mu.Lock()
	_, _ = w.Write(nil) // want `stream I/O \(io\.Writer\.Write\) while A\.mu is held`
	_, _ = r.Read(nil)  // want `stream I/O \(io\.Reader\.Read\) while A\.mu is held`
	a.mu.Unlock()
}

func commit(a *A, st *Store) {
	a.mu.Lock()
	_ = st.Commit() // want `durable store Commit while A\.mu is held`
	a.mu.Unlock()
}

func fsync(a *A, f File) {
	a.mu.Lock()
	_ = f.Sync() // want `fsync \(Sync\) while A\.mu is held`
	a.mu.Unlock()
}

func replace(a *A, fs FS) {
	a.mu.Lock()
	_ = fs.WriteFileAtomic("loc.db", nil) // want `durable replace \(WriteFileAtomic\) while A\.mu is held`
	a.mu.Unlock()
}

func blockHelper(ch chan int) int { return <-ch }

func callsBlocker(a *A, ch chan int) {
	a.mu.Lock()
	_ = blockHelper(ch) // want `call to blockHelper performs channel receive while A\.mu is held`
	a.mu.Unlock()
}

func spawn(a *A, ch chan int) {
	a.mu.Lock()
	go func() { ch <- 1 }() // the goroutine holds nothing: no finding
	a.n++
	a.mu.Unlock()
}

func stale(a *A) {
	a.mu.Lock()
	//itcvet:allowblocking nothing here blocks // want `unused itcvet:allowblocking annotation`
	a.n++
	a.mu.Unlock()
}

func bare(a *A, ch chan int) {
	a.mu.Lock()
	/* want `malformed itcvet:allowblocking annotation` */ //itcvet:allowblocking
	ch <- 1                                                // want `channel send while A\.mu is held`
	a.mu.Unlock()
}

// next takes the lock itself, so calling it with the lock held is a
// self-deadlock: an A.mu -> A.mu edge.
func (a *A) next() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// A select arm's comm statement is evaluated by the holder like any other
// expression: the call in it is a call made under the lock. The arm's own
// send is not a second blocking finding — the default keeps the select from
// parking.
func commCall(a *A, ch chan int) {
	a.mu.Lock()
	select {
	case ch <- a.next(): // want `lock-order cycle \(potential deadlock\): A\.mu -> A\.mu \(lo\.go:\d+, commCall calls A\.next\)`
	default:
	}
	a.mu.Unlock()
}

// A deferred literal runs at exit, when the held set is unknowable, and a
// literal bound to a variable may run anywhere: lockorder analyzes both with
// nothing held.
func deferredLit(a *A, ch chan int) {
	a.mu.Lock()
	defer func() { ch <- 1 }() // no finding
	later := func() { <-ch }   // no finding
	_ = later
	a.mu.Unlock()
}

func pickWorker(ch chan int) func() { <-ch; return nil }

func slot(ch chan int) []int { <-ch; return nil }

// The spawner evaluates a go statement's callee expression, and a loop its
// range targets, under whatever it holds.
func goCallee(a *A, ch chan int) {
	a.mu.Lock()
	go pickWorker(ch)() // want `call to pickWorker performs channel receive while A\.mu is held`
	a.mu.Unlock()
}

func rangeTarget(a *A, ch chan int, xs []int) {
	a.mu.Lock()
	for slot(ch)[0] = range xs { // want `call to slot performs channel receive while A\.mu is held`
	}
	a.mu.Unlock()
}

// The category's own allow covers blocking findings too.
func sendAllowedByCategory(a *A, ch chan int) {
	a.mu.Lock()
	ch <- 1 //itcvet:allow lockorder -- fixture: capacity-1 channel, as above
	a.mu.Unlock()
}

// A simulated process that parks under a lock hangs the kernel, not one
// caller: the simulator's parks block like a real wait.
func simPark(a *A, p *sim.Proc, f *sim.Future[int]) {
	a.mu.Lock()
	p.Sleep(1)    // want `simulated park \(Proc\.Sleep\) while A\.mu is held`
	_ = f.Wait(p) // want `simulated park \(Future\.Wait\) while A\.mu is held`
	a.mu.Unlock()
}
