// Package monitor implements the monitoring tools the paper calls for in
// §3.6: "recognize long-term changes in user access patterns and help
// reassign users to cluster servers so as to balance server loads and
// reduce cross-cluster traffic."
//
// Vice servers already count hot-path operations per volume per requesting
// node (vice.Server.AccessStats). The Advisor aggregates those counts by
// cluster and recommends volume reassignments: a volume whose traffic comes
// predominantly from another cluster should move to that cluster's server.
// Per the paper, recommendations are advisory — "a human operator will
// initiate the actual reassignment" — so the Advisor only reports; applying
// a recommendation is an explicit Admin.MoveVolume.
package monitor

import (
	"fmt"
	"sort"
	"time"

	"itcfs"
	"itcfs/internal/trace"
)

// Recommendation proposes moving one volume to a new custodian.
type Recommendation struct {
	Volume      uint32
	From        string // current custodian
	To          string // recommended custodian
	TotalOps    int64
	RemoteShare float64 // fraction of ops from the winning remote cluster
	// P90 is the observed 90th-percentile service time for the volume,
	// zero when the cell runs without a metrics registry.
	P90    time.Duration
	Reason string
}

// The advisor's thresholds, conservative ones.
const (
	// minOps ignores volumes with fewer observed operations: reassignment
	// is expensive and must not chase noise (§3.1: such changes are rare
	// and human-initiated).
	minOps = 50
	// minRemoteShare is the fraction of a volume's traffic that must come
	// from one foreign cluster before a move is recommended.
	minRemoteShare = 0.6
)

// Advisor analyzes a cell's access patterns.
type Advisor struct {
	cell *itcfs.Cell
	slo  *SLOMonitor // optional — lets overload findings cite burn rates
}

// New creates an advisor over a cell.
func New(cell *itcfs.Cell) *Advisor {
	return &Advisor{cell: cell}
}

// UseSLO gives the advisor an SLO monitor to consult: subsequent
// DetectOverload findings cite the worst current burn rate, turning "the
// server is busy" into "and clients are paying for it".
func (a *Advisor) UseSLO(m *SLOMonitor) { a.slo = m }

// clusterOf maps a node name to its cluster index (-1 if unknown).
func (a *Advisor) clusterOf(nodeName string) int {
	for _, ws := range a.cell.Workstations() {
		if ws.Name == nodeName {
			return ws.Cluster.ID
		}
	}
	for _, s := range a.cell.Servers {
		if s.Node.Name == nodeName {
			return s.Cluster.ID
		}
	}
	return -1
}

// serverOfCluster returns the cluster's server name.
func (a *Advisor) serverOfCluster(id int) string {
	for _, s := range a.cell.Servers {
		if s.Cluster.ID == id {
			return s.Vice.Name()
		}
	}
	return ""
}

// VolumeTraffic is one volume's observed per-cluster operation counts.
type VolumeTraffic struct {
	Volume    uint32
	Custodian string
	ByCluster map[int]int64
	Total     int64
}

// Collect aggregates every server's access counters by cluster.
func (a *Advisor) Collect() []VolumeTraffic {
	var out []VolumeTraffic
	for _, s := range a.cell.Servers {
		for vol, byNode := range s.Vice.AccessStats() {
			vt := VolumeTraffic{Volume: vol, Custodian: s.Vice.Name(), ByCluster: make(map[int]int64)}
			for node, n := range byNode {
				cl := a.clusterOf(node)
				vt.ByCluster[cl] += n
				vt.Total += n
			}
			out = append(out, vt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Volume < out[j].Volume })
	return out
}

// Recommend returns the volume moves that would localize traffic, sorted
// by descending benefit.
func (a *Advisor) Recommend() []Recommendation {
	var recs []Recommendation
	for _, vt := range a.Collect() {
		if vt.Total < minOps {
			continue
		}
		custodianCluster := a.clusterOfServer(vt.Custodian)
		// Find the cluster generating the most traffic.
		bestCluster, bestOps := -1, int64(0)
		for cl, n := range vt.ByCluster {
			if cl >= 0 && n > bestOps {
				bestCluster, bestOps = cl, n
			}
		}
		if bestCluster < 0 || bestCluster == custodianCluster {
			continue
		}
		share := float64(bestOps) / float64(vt.Total)
		if share < minRemoteShare {
			continue
		}
		to := a.serverOfCluster(bestCluster)
		if to == "" || to == vt.Custodian {
			continue
		}
		reason := fmt.Sprintf("%.0f%% of %d ops come from cluster %d",
			100*share, vt.Total, bestCluster)
		p90 := a.volumeP90(vt.Volume)
		if p90 > 0 {
			// With a metrics registry attached, the recommendation cites the
			// latency users of this volume actually observe — evidence the
			// cross-cluster hops are costing something.
			reason += fmt.Sprintf("; observed p90 service time %v", p90)
		}
		recs = append(recs, Recommendation{
			Volume:      vt.Volume,
			From:        vt.Custodian,
			To:          to,
			TotalOps:    vt.Total,
			RemoteShare: share,
			P90:         p90,
			Reason:      reason,
		})
	}
	sort.Slice(recs, func(i, j int) bool {
		return float64(recs[i].TotalOps)*recs[i].RemoteShare >
			float64(recs[j].TotalOps)*recs[j].RemoteShare
	})
	return recs
}

// volumeP90 looks up the volume's observed service-time histogram in the
// cell's metrics registry (zero without one, or before any observation).
func (a *Advisor) volumeP90(vol uint32) time.Duration {
	h := a.cell.Metrics.FindHistogram(trace.VolLatencyMetric(vol))
	if h == nil || h.Count() == 0 {
		return 0
	}
	return h.Quantile(0.90)
}

func (a *Advisor) clusterOfServer(name string) int {
	for _, s := range a.cell.Servers {
		if s.Vice.Name() == name {
			return s.Cluster.ID
		}
	}
	return -1
}

// Reset clears every server's access counters, starting a new observation
// window.
func (a *Advisor) Reset() {
	for _, s := range a.cell.Servers {
		s.Vice.ResetAccessStats()
	}
}

// CrossClusterFrames re-exports the backbone counter for before/after
// comparisons around an applied recommendation.
func (a *Advisor) CrossClusterFrames() int64 {
	return a.cell.Net.CrossClusterFrames()
}
