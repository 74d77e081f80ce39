package harness

import (
	"fmt"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/workload"
)

// The provisioning vocabulary every experiment builds its cell from. A step
// is one itcfs.Cell.Do: a simulated process run to quiescence, whose error
// comes back to the caller. Each step is a barrier that lets lingering timers
// (call timeouts, callback expiries) fire before the next begins, so an
// experiment's steps are part of its definition: the helpers below that are
// themselves a step say so, and the rest run inside the caller's.

// userPassword is every provisioned user's password; the operator account
// keeps the cell's bootstrap one.
const userPassword = "pw"

// login authenticates user at ws, the first thing a step at a new station
// does.
func login(p *sim.Proc, ws *itcfs.Workstation, user string) error {
	if user == "operator" {
		return ws.Login(p, user, "operator-password")
	}
	return ws.Login(p, user, userPassword)
}

// asAdmin is one step run as the operator, connected to server 0.
func asAdmin(cell *itcfs.Cell, fn func(p *sim.Proc, admin *itcfs.Admin) error) error {
	return cell.Do(func(p *sim.Proc) error {
		admin, err := cell.Admin(p, 0)
		if err != nil {
			return err
		}
		return fn(p, admin)
	})
}

// newUsers provisions users, each with a home volume at /usr/<name> in the
// custody of home (a server name; "" leaves it on server 0, where volumes are
// created). Placing a home on its user's cluster server is the paper's way to
// balance load and localize references (§3.1).
func newUsers(p *sim.Proc, admin *itcfs.Admin, home string, names ...string) error {
	for _, name := range names {
		if _, err := admin.NewUserAt(p, name, userPassword, 0, home); err != nil {
			return fmt.Errorf("provision %s: %w", name, err)
		}
	}
	return nil
}

// provision is one step that creates users with homes on server 0.
func provision(cell *itcfs.Cell, names ...string) error {
	return asAdmin(cell, func(p *sim.Proc, admin *itcfs.Admin) error { return newUsers(p, admin, "", names...) })
}

// station adds a workstation to cluster and, as one step, logs user in there
// and runs work (nil when logging in is all the step does).
func station(cell *itcfs.Cell, cluster int, name, user string, work func(p *sim.Proc, ws *itcfs.Workstation) error) (*itcfs.Workstation, error) {
	ws := cell.AddWorkstation(cluster, name)
	return ws, cell.Do(func(p *sim.Proc) error {
		if err := login(p, ws, user); err != nil || work == nil {
			return err
		}
		return work(p, ws)
	})
}

// sysVolume creates the system-binary volume, owned by the operator and
// mounted at root (a directory of /unix).
func sysVolume(p *sim.Proc, admin *itcfs.Admin, root string) (uint32, error) {
	if err := admin.MkdirAll(p, "/unix"); err != nil {
		return 0, err
	}
	return admin.CreateVolume(p, "sys.bin", root, "operator", 0)
}

// release freezes vol, mounted at root, as a read-only clone mounted at the
// returned path and replicated to the servers in onto — the deployment the
// paper describes for frequently read, rarely modified files (§3.2).
func release(p *sim.Proc, admin *itcfs.Admin, vol uint32, root string, onto []*itcfs.Server) (string, error) {
	var replicas []string
	for _, s := range onto {
		replicas = append(replicas, s.Vice.Name())
	}
	clone := root + "-ro"
	_, err := admin.CloneVolume(p, vol, clone, replicas...)
	return clone, err
}

// andrewSrc is where the five-phase benchmark's source tree lives in Vice:
// in the home volume of user bench.
const andrewSrc = "/vice/usr/bench/src"

// andrewTree installs the benchmark's source tree from a new station in
// cluster 0, as one step. A station that later runs the benchmark cold must be
// another one: this one's cache holds every file it wrote.
func andrewTree(cell *itcfs.Cell, name string, cfg workload.AndrewConfig) (*itcfs.Workstation, error) {
	return station(cell, 0, name, "bench", func(p *sim.Proc, ws *itcfs.Workstation) error {
		_, err := workload.GenerateTree(p, ws.FS, andrewSrc, cfg)
		return err
	})
}
