// Command itcfsd runs a real Vice cluster server over TCP. It serves the
// same protocol — authenticated handshake, sealed records, whole-file
// transfer, callbacks — that the simulator evaluates, using the identical
// server code.
//
//	itcfsd -addr :7001 -operator-password secret -data-dir /var/lib/itcfs
//
// Clients connect with cmd/itcfs. The first user is "operator" (a member of
// System:Administrators), who can create users and volumes from the client
// shell.
//
// With -data-dir the daemon stores volumes durably through the write-ahead
// log engine (internal/store/walstore): every acknowledged operation
// survives kill -9, and startup replays the log, salvages volumes, and
// reports what it repaired to the flight recorder (vice.salvage events on
// /events). Without -data-dir all state is in memory and dies with the
// process.
//
// With -debug-addr the daemon also serves a read-only observability
// endpoint: /metrics (the registry as deterministic JSON, including
// wall-clock rpc.serve.latency and rpc.accept.latency histograms),
// /metrics.txt (the text report), /events (the flight-recorder ring),
// /locdb (the location database with per-volume custodians and replica
// sets), /snapshot (the combined dump also written to stderr on shutdown)
// and /debug/pprof/ (live CPU and heap profiling via net/http/pprof).
//
// What is left in this file is the deployment: flags, the store, signals,
// checkpoint pacing, the debug endpoint and the log line for each connection's
// end. The server is stood up by vice.Boot and serves its listener with
// (*vice.Server).Serve, in which each connection lives and dies in ServeConn;
// tests drive both in-process.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/store"
	"itcfs/internal/store/walstore"
	"itcfs/internal/trace"
	"itcfs/internal/vice"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// writeLocDB renders the location database — the operator's map of where
// every volume lives and which servers carry read-only replicas of it.
// Served on /locdb and folded into /snapshot; entries come out of
// LocDB.Entries() sorted, so the listing is stable across requests.
func writeLocDB(w io.Writer, locdb *vice.LocDB) {
	entries := locdb.Entries()
	fmt.Fprintf(w, "location database: version %d, %d entries\n", locdb.Version(), len(entries))
	for _, e := range entries {
		fmt.Fprintf(w, "  %-24s volume %-6d custodian %s", e.Prefix, e.Volume, e.Custodian)
		if len(e.Replicas) > 0 {
			fmt.Fprintf(w, "  replicas %v", e.Replicas)
		}
		fmt.Fprintln(w)
	}
}

// run is main with an explicit argument list and exit code, so the
// end-to-end restart test can re-exec the daemon as a helper process.
func run(args []string) int {
	fs := flag.NewFlagSet("itcfsd", flag.ExitOnError)
	addr := fs.String("addr", ":7001", "listen address")
	name := fs.String("name", "server0", "server name (custodian identity)")
	var mode vice.Mode
	fs.TextVar(&mode, "mode", vice.Revised, "implementation mode: prototype or revised")
	opPassword := fs.String("operator-password", "", "password for the bootstrap operator account (required)")
	dataDir := fs.String("data-dir", "", "durable volume storage directory (empty = in-memory only)")
	ckptInterval := fs.Duration("checkpoint-interval", time.Minute, "how often to checkpoint and compact the log (with -data-dir; 0 = only on clean shutdown)")
	traceFlag := fs.Bool("trace", false, "record a span per served call and per callback break it makes (wall-clock timestamps)")
	traceOut := fs.String("trace-out", "itcfsd-trace.json", "Chrome trace written on shutdown (with -trace)")
	debugAddr := fs.String("debug-addr", "", "serve the read-only debug endpoint on this address (empty = off)")
	flightEvents := fs.Int("flight-events", 1024, "operational events retained in the flight recorder")
	readyFile := fs.String("ready-file", "", "write the bound serve and debug addresses here once listening (for tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *opPassword == "" {
		fmt.Fprintln(os.Stderr, "itcfsd: -operator-password is required")
		return 2
	}

	// The real daemon serves real clients: file timestamps are wall time,
	// and the flight recorder and the tracer stamp events with the clock its
	// calls are timed by, rpc.Clock's monotonic one.
	clock := func() int64 { return time.Now().UnixNano() } //itcvet:allow wallclock -- real deployment clock, outside the simulator
	uptime := func() sim.Time { return rpc.Clock(nil) }
	metrics := trace.NewRegistry()
	flight := trace.NewRecorder(*flightEvents, uptime)
	// A wall-clock tracer: real transports have no virtual time, so spans
	// carry the same monotonic offset the flight recorder uses. It records
	// an rpc.serve per served call and, under it, an rpc.call per callback
	// break the call makes.
	var tracer *trace.Tracer
	if *traceFlag {
		tracer = trace.New(uptime)
	}

	var st store.Store
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Printf("itcfsd: data dir: %v", err)
			return 1
		}
		ws, err := walstore.Open(store.DirFS(*dataDir))
		if err != nil {
			log.Printf("itcfsd: open store: %v", err)
			return 1
		}
		st = ws
	}

	srv, rep, err := vice.Boot(vice.Config{
		Name:    *name,
		Mode:    mode,
		Clock:   clock,
		Tracer:  tracer,
		Metrics: metrics,
		Flight:  flight,
		Store:   st,
	}, *opPassword)
	if err != nil {
		log.Printf("itcfsd: %v", err)
		return 1
	}
	if rep != nil {
		for _, line := range rep.Lines() {
			log.Printf("itcfsd: %s", line)
		}
	}
	locdb := srv.Loc()

	// snapshot is the one dump path every exit and the debug endpoint share:
	// the metrics report, the location database and the flight-recorder ring.
	snapshot := func(w io.Writer) {
		metrics.WriteText(w)
		writeLocDB(w, locdb)
		flight.WriteText(w)
	}
	// shutdown flushes state and exits: a final checkpoint (when durable),
	// the Chrome trace (when tracing), then the snapshot to stderr. Runs on
	// clean signals and on fatal serve errors alike, so both durable state
	// and operational evidence survive.
	shutdown := func(code int) {
		if st != nil {
			if err := srv.CheckpointStore(); err != nil {
				log.Printf("itcfsd: shutdown checkpoint: %v", err)
				if code == 0 {
					code = 1
				}
			}
			if err := st.Close(); err != nil {
				log.Printf("itcfsd: close store: %v", err)
			}
		}
		if tracer != nil {
			f, err := os.Create(*traceOut)
			if err == nil {
				err = tracer.ExportChrome(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				log.Printf("itcfsd: trace export: %v", err)
				if code == 0 {
					code = 1
				}
			} else {
				log.Printf("itcfsd: wrote %d spans to %s", len(tracer.Spans()), *traceOut)
			}
		}
		snapshot(os.Stderr)
		os.Exit(code)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("itcfsd: %v: shutting down", s)
		shutdown(0)
	}()

	if st != nil && *ckptInterval > 0 {
		go func() {
			for {
				time.Sleep(*ckptInterval) //itcvet:allow wallclock -- periodic checkpoint pacing in the real daemon
				if err := srv.CheckpointStore(); err != nil {
					log.Printf("itcfsd: checkpoint: %v", err)
					return
				}
			}
		}()
	}

	debugBound := ""
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := metrics.WriteJSON(w); err != nil {
				log.Printf("itcfsd: debug /metrics: %v", err)
			}
		})
		mux.HandleFunc("/metrics.txt", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			metrics.WriteText(w)
		})
		mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			flight.WriteText(w)
		})
		mux.HandleFunc("/locdb", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeLocDB(w, locdb)
		})
		mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			snapshot(w)
		})
		// Live profiling: the simulator answers "where does virtual time go",
		// pprof answers "where does this process's real CPU and heap go".
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Printf("itcfsd: debug listen: %v", err)
			return 1
		}
		debugBound = dl.Addr().String()
		log.Printf("itcfsd: debug endpoint on http://%s (/metrics /metrics.txt /events /locdb /snapshot /debug/pprof/)", debugBound)
		go func() {
			if err := http.Serve(dl, mux); err != nil {
				log.Printf("itcfsd: debug serve: %v", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("itcfsd: listen: %v", err)
		return 1
	}
	if *readyFile != "" {
		ready := "ADDR " + l.Addr().String() + "\nDEBUG " + debugBound + "\n"
		if err := os.WriteFile(*readyFile, []byte(ready), 0o644); err != nil {
			log.Printf("itcfsd: ready file: %v", err)
			return 1
		}
	}
	log.Printf("itcfsd: %s (%s mode) serving Vice on %s", *name, mode, l.Addr())
	err = srv.Serve(l, func(addr net.Addr, user string, err error) {
		if err != nil {
			log.Printf("itcfsd: %s: handshake rejected: %v", addr, err)
			return
		}
		log.Printf("itcfsd: %s (%q) disconnected", addr, user)
	})
	log.Printf("itcfsd: accept: %v", err)
	shutdown(1)
	return 1
}
