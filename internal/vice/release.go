package vice

// The server half of the read-only replication plane (§3.2): handleVolClone
// registers each release with the replica.Controller and pushes the clone
// image through pushRelease; after a crash, ResumeReleases re-derives the
// release set from the recovered location database and finishes any install
// the crash interrupted. The receiving side (handleVolInstall) is
// idempotent for read-only volumes, so resuming never double-installs.

import (
	"fmt"

	"itcfs/internal/proto"
	"itcfs/internal/replica"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/volume"
)

// Releases snapshots the release controller's state (for the debug
// endpoints and tests).
func (s *Server) Releases() []replica.Release {
	return s.release.Releases()
}

// pushRelease returns the install function Propagate drives: it ships vol's
// serialized image to one replica server and returns nil once that server
// acknowledged (its attachVolume journals the image durably when a store is
// configured, so an acknowledged install survives the replica's own crash).
func (s *Server) pushRelease(p *sim.Proc, vol *volume.Volume) func(server string) error {
	s.gate.RLock()
	image := vol.Serialize()
	s.gate.RUnlock()
	body := proto.Marshal(proto.VolInstallArgs{Volume: vol.ID(), Name: vol.Name(), ReadOnly: true})
	return func(server string) error {
		return s.callPeer(p, server, rpc.Request{Op: rpc.Op(proto.OpVolInstall), Body: body, Bulk: image})
	}
}

// ResumeReleases rebuilds the release controller from the location database
// and re-propagates every release this server custodians. Call it after
// RecoverStore: a crash between a release's installs leaves the location
// entry (journalled before the clone's reply) naming replicas that may
// never have received the image. Because installs are idempotent, the
// simplest correct resume is to push every release to its whole replica
// set again — replicas that already hold the volume acknowledge without
// work. Returns the volumes resumed and the first push error (remaining
// releases are still attempted).
func (s *Server) ResumeReleases(p *sim.Proc) (resumed []uint32, err error) {
	for _, le := range s.cfg.Loc.Entries() {
		if le.Custodian != s.cfg.Name || len(le.Replicas) == 0 {
			continue
		}
		vol, ok := s.Volume(le.Volume)
		if !ok || !vol.ReadOnly() {
			continue
		}
		s.release.Begin(le.Volume, vol.Name(), le.Prefix, le.Replicas)
		if perr := s.release.Propagate(le.Volume, s.pushRelease(p, vol)); perr != nil {
			if err == nil {
				err = perr
			}
			continue
		}
		resumed = append(resumed, le.Volume)
	}
	if fl := s.cfg.Flight; fl != nil && len(resumed) > 0 {
		fl.Log(trace.EventReplicaRelease, s.cfg.Name,
			fmt.Sprintf("resumed %d releases after recovery", len(resumed)))
	}
	return resumed, err
}
