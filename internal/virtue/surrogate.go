package virtue

import (
	"itcfs/internal/baseline"
	"itcfs/internal/sim"
	"itcfs/internal/venus"
)

// Surrogate is the surrogate server of §3.3: it runs on a Virtue
// workstation and behaves as a single-site network file server for the
// workstation's file system. Low-function machines (the paper names IBM
// PCs and the Apple Macintosh) that cannot run Venus speak a simple
// open/read-page/write-page protocol to the surrogate — and are thereby
// "transparently accessing Vice files on account of a Virtue workstation's
// transparent Vice attachment."
//
// The protocol is the page protocol of internal/baseline, so any page
// client works against a surrogate unchanged; the difference is what backs
// it: the full workstation view, local files and the shared name space
// alike, with Venus caching doing its usual work underneath.
type Surrogate struct{ *baseline.Server }

// NewSurrogate builds a surrogate server over the workstation view fs.
// Attach its Dispatcher to an rpc endpoint (simulated or TCP) reachable by
// the low-function clients.
func NewSurrogate(fs *FS) *Surrogate {
	return &Surrogate{baseline.NewServerOver(workstationFiles{fs})}
}

// workstationFiles is the page protocol's Backend over a workstation view.
type workstationFiles struct{ fs *FS }

func (w workstationFiles) Open(p *sim.Proc, path string, create bool) (baseline.OpenFile, error) {
	flags := venus.FlagRead | venus.FlagWrite
	if create {
		flags |= venus.FlagCreate
	}
	f, err := w.fs.Open(p, path, flags)
	if err != nil {
		// Retry read-only: the PC may be opening a file it cannot write
		// (a released binary, a file protected by mode bits).
		f, err = w.fs.Open(p, path, venus.FlagRead)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (w workstationFiles) Stat(p *sim.Proc, path string) (int64, uint64, error) {
	st, err := w.fs.Stat(p, path)
	return st.Size, st.Version, err
}
