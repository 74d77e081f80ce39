package vice

// How a volume leaves this server. Vice ships a volume one way: installRequest
// carries its image in an OpVolInstall, which handleVolMove sends to the new
// custodian and release sends to each replica of a read-only clone (§3.2).
// A release is nothing but its location entry — the clone, its mount point
// and its replica set, journalled and broadcast before the first install —
// and the loop in release. After a crash, ResumeReleases finds every release
// in the recovered location database and runs that loop again. The receiving
// side (handleVolInstall) is idempotent for read-only volumes, so a replica
// that already holds the image acknowledges without work.

import (
	"fmt"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/volume"
)

// installRequest is v's image in the request that installs it on another
// server, read under the gate's read side. The request may be sent to any
// number of servers.
func (s *Server) installRequest(v *volume.Volume) rpc.Request {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return rpc.Request{
		Op:   rpc.Op(proto.OpVolInstall),
		Body: proto.Marshal(proto.VolInstallArgs{Volume: v.ID(), Name: v.Name(), ReadOnly: v.ReadOnly()}),
		Bulk: v.Serialize(),
	}
}

// release ships clone to each of replicas in order and returns nil once every
// one has acknowledged (its attachVolume journals the image durably when a
// store is configured, so an acknowledged install survives the replica's own
// crash). The first failure stops the loop and is returned.
func (s *Server) release(p *sim.Proc, clone *volume.Volume, replicas []string) error {
	req := s.installRequest(clone)
	for _, server := range replicas {
		if err := s.callPeer(p, server, req); err != nil {
			s.cfg.Metrics.Counter(trace.MetricReplicaReleasePushFailures).Inc()
			s.logRelease("volume %d (%s): push to %s failed: %v", clone.ID(), clone.Name(), server, err)
			return fmt.Errorf("vice: install volume %d on %s: %w", clone.ID(), server, err)
		}
		s.cfg.Metrics.Counter(trace.MetricReplicaReleaseInstalls).Inc()
	}
	s.logRelease("volume %d (%s) released to %d replicas", clone.ID(), clone.Name(), len(replicas))
	return nil
}

// logRelease records a release event on the flight recorder, if there is one.
func (s *Server) logRelease(format string, args ...any) {
	if fl := s.cfg.Flight; fl != nil {
		fl.Log(trace.EventReplicaRelease, s.cfg.Name, fmt.Sprintf(format, args...))
	}
}

// ResumeReleases ships every release this server custodians to its whole
// replica set again. Call it after RecoverStore: a crash between a release's
// installs leaves the location entry naming replicas that may never have
// received the image, and that entry is the only record of the release.
// Returns the volumes resumed and the first error (remaining releases are
// still attempted).
func (s *Server) ResumeReleases(p *sim.Proc) (resumed []uint32, err error) {
	for _, le := range s.cfg.Loc.Entries() {
		if le.Custodian != s.cfg.Name || len(le.Replicas) == 0 {
			continue
		}
		vol, ok := s.Volume(le.Volume)
		if !ok || !vol.ReadOnly() {
			continue
		}
		if rerr := s.release(p, vol, le.Replicas); rerr != nil {
			if err == nil {
				err = rerr
			}
			continue
		}
		resumed = append(resumed, le.Volume)
	}
	if len(resumed) > 0 {
		s.logRelease("resumed %d releases after recovery", len(resumed))
	}
	return resumed, err
}
