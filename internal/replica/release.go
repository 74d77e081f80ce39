// Package replica is the read-only volume replication plane (§3.2, §5.3):
// system software is released as a read-only clone propagated to a set of
// replica servers, so a crashed custodian blacks nothing out for readers.
// Its Controller drives and tracks the propagation of a clone image to its
// replica set; each replica holds its own copy of the image.
//
// The controller is deliberately transport-free: the server owns the peer
// connections and hands Propagate a push function, so the same state
// machine serves the deterministic simulator and the TCP daemon.
package replica

import (
	"fmt"
	"sort"
	"sync"

	"itcfs/internal/trace"
)

// Release tracks the propagation of one read-only clone to its replica set.
type Release struct {
	Volume   uint32
	Name     string
	Path     string   // mount point of the release ("" = unmounted)
	Replicas []string // desired replica set, in deterministic order
	Pending  []string // replicas that have not yet confirmed the install
}

// complete reports whether every replica confirmed.
func (r Release) complete() bool { return len(r.Pending) == 0 }

// Controller drives releases. Each Begin records the desired replica set;
// Propagate pushes the image to every replica still pending, marking each
// off as it confirms. The controller is idempotent and resumable: a replica
// that already confirmed is never pushed again, a failed push leaves the
// remainder pending, and re-running Propagate after a crash (the installs
// on the receiving side are idempotent too) finishes exactly the missing
// installs.
type Controller struct {
	origin  string // custodian server name, for events
	metrics *trace.Registry
	flight  *trace.Recorder

	mu sync.Mutex
	// keyed by clone volume ID
	// guarded by mu
	releases map[uint32]*Release
}

// NewController returns an empty controller for the named origin server.
// metrics and flight may be nil.
func NewController(origin string, metrics *trace.Registry, flight *trace.Recorder) *Controller {
	return &Controller{
		origin:   origin,
		metrics:  metrics,
		flight:   flight,
		releases: make(map[uint32]*Release),
	}
}

// Begin registers a release of clone vol to replicas, every replica
// initially pending. Re-registering an existing release (resuming after a
// restart) keeps the replica set but re-marks only the given replicas as
// pending — pass the full set to re-verify everything, or the known-missing
// subset to finish an interrupted release.
func (c *Controller) Begin(vol uint32, name, path string, replicas []string) {
	reps := append([]string(nil), replicas...)
	c.mu.Lock()
	defer c.mu.Unlock()
	rel := c.releases[vol]
	if rel == nil {
		rel = &Release{Volume: vol, Name: name, Path: path}
		c.releases[vol] = rel
	}
	rel.Name, rel.Path = name, path
	rel.Replicas = reps
	rel.Pending = append([]string(nil), reps...)
}

// Propagate pushes the release image to every pending replica, in order,
// via push (which installs the image on one server and returns nil once the
// replica acknowledged durably). The first push failure stops propagation
// and is returned; confirmed replicas stay confirmed, so a retry resumes
// where this attempt stopped.
func (c *Controller) Propagate(vol uint32, push func(server string) error) error {
	c.mu.Lock()
	rel := c.releases[vol]
	if rel == nil {
		c.mu.Unlock()
		return fmt.Errorf("replica: no release for volume %d", vol)
	}
	pending := append([]string(nil), rel.Pending...)
	name := rel.Name
	c.mu.Unlock()

	for _, server := range pending {
		if err := push(server); err != nil {
			c.metrics.Counter(trace.MetricReplicaReleasePushFailures).Inc()
			if c.flight != nil {
				c.flight.Log(trace.EventReplicaRelease, c.origin,
					fmt.Sprintf("volume %d (%s): push to %s failed: %v", vol, name, server, err))
			}
			return fmt.Errorf("replica: install volume %d on %s: %w", vol, server, err)
		}
		c.metrics.Counter(trace.MetricReplicaReleaseInstalls).Inc()
		c.confirm(vol, server)
	}
	if c.flight != nil {
		c.flight.Log(trace.EventReplicaRelease, c.origin,
			fmt.Sprintf("volume %d (%s) released to %d replicas", vol, name, len(pending)))
	}
	return nil
}

// confirm marks one replica of a release as installed.
func (c *Controller) confirm(vol uint32, server string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel := c.releases[vol]
	if rel == nil {
		return
	}
	out := rel.Pending[:0]
	for _, s := range rel.Pending {
		if s != server {
			out = append(out, s)
		}
	}
	rel.Pending = out
}

// Pending returns the replicas of vol still awaiting an install (nil when
// the release is complete or unknown).
func (c *Controller) Pending(vol uint32) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel := c.releases[vol]
	if rel == nil {
		return nil
	}
	return append([]string(nil), rel.Pending...)
}

// Releases snapshots every tracked release, sorted by volume ID.
func (c *Controller) Releases() []Release {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Release, 0, len(c.releases))
	for _, rel := range c.releases {
		cp := *rel
		cp.Replicas = append([]string(nil), rel.Replicas...)
		cp.Pending = append([]string(nil), rel.Pending...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Volume < out[j].Volume })
	return out
}

// Incomplete lists the volume IDs of releases with pending replicas, in
// ascending order — the work list for a resume after a crash.
func (c *Controller) Incomplete() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint32
	for vol, rel := range c.releases {
		if !rel.complete() {
			out = append(out, vol)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
