// Fixture for lockcheck: guarded fields, the path-sensitive held-state
// tracking, RWMutex read/write levels, and both annotations.
package c

import "sync"

type counter struct {
	mu        sync.Mutex
	n         int      // guarded by mu
	names     []string // guarded by mu
	unguarded int
}

// The canonical pattern: lock, defer unlock, touch freely.
func (c *counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	c.names = append(c.names, "inc")
}

// Unguarded fields stay free.
func (c *counter) Meta() int { return c.unguarded }

func (c *counter) BadRead() int {
	return c.n // want `counter\.n is guarded by mu but read here`
}

func (c *counter) BadWrite() {
	c.n = 1 // want `counter\.n is guarded by mu but written here`
}

// Unlocking ends the protected region.
func (c *counter) UseAfterUnlock() int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	n += c.n // want `counter\.n is guarded by mu but read here`
	return n
}

// A branch that unlocks and returns does not poison the fallthrough path.
func (c *counter) EarlyExit() int {
	c.mu.Lock()
	if c.n < 0 {
		c.mu.Unlock()
		return 0
	}
	defer c.mu.Unlock()
	return c.n
}

// Locking on only one branch does not protect the merge point.
func (c *counter) MaybeLocked(cond bool) {
	if cond {
		c.mu.Lock()
	}
	c.n++ // want `counter\.n is guarded by mu but written here`
	if cond {
		c.mu.Unlock()
	}
}

// A goroutine body starts with no locks held, whatever the spawner holds.
func (c *counter) Spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	go func() {
		c.n++ // want `counter\.n is guarded by mu but written here`
	}()
}

// Taking a guarded field's address lets it escape the lock: a write.
func (c *counter) BadEscape() *int {
	return &c.n // want `counter\.n is guarded by mu but written here`
}

// Helpers that run under the caller's lock declare it.
//
//itcvet:holds mu
func (c *counter) incLocked() { c.n++ }

func (c *counter) ViaHelper() {
	c.mu.Lock()
	c.incLocked()
	c.mu.Unlock()
}

// The allow escape hatch still exists for deliberate racy reads.
func (c *counter) RacyPeek() int {
	return c.n //itcvet:allow unguarded -- fixture: approximate value is fine
}

type table struct {
	rw sync.RWMutex
	m  map[string]int // guarded by rw
}

func (t *table) Get(k string) int {
	t.rw.RLock()
	defer t.rw.RUnlock()
	return t.m[k]
}

func (t *table) Put(k string, v int) {
	t.rw.Lock()
	defer t.rw.Unlock()
	t.m[k] = v
}

// Writing under the read lock is the subtle RWMutex bug.
func (t *table) BadPut(k string, v int) {
	t.rw.RLock()
	defer t.rw.RUnlock()
	t.m[k] = v // want `table\.m is written here while rw is held only for reading`
}

// Read-level helpers: holds(read) grants reads, not writes.
//
//itcvet:holds rw(read)
func (t *table) sizeLocked() int {
	t.m["x"] = 1 // want `table\.m is written here while rw is held only for reading`
	return len(t.m)
}

// An annotation naming a non-mutex is itself an error.
type wrong struct {
	// guarded by missing
	n int // want `guarded-by annotation names "missing", which is not a sync\.Mutex or sync\.RWMutex field of wrong`
}

// A range statement assigns to its key and value targets on every
// iteration: a guarded field there is a write.
func (c *counter) BadRangeTarget(xs []int) {
	for _, c.n = range xs { // want `counter\.n is guarded by mu but written here`
	}
}

// A deferred literal inherits the state at the defer statement, like any
// literal that is not a goroutine body: lockcheck approximates synchronous
// use.
func (c *counter) DeferredLit() {
	c.mu.Lock()
	defer func() {
		c.n++ // inherits the lock: no finding
		c.mu.Unlock()
	}()
}

func (c *counter) DeferredLitUnlocked() {
	defer func() {
		c.n++ // want `counter\.n is guarded by mu but written here`
	}()
}
