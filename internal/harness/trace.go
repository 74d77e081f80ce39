package harness

import (
	"fmt"
	"io"
	"time"

	"itcfs"
	"itcfs/internal/sim"
	"itcfs/internal/trace"
	"itcfs/internal/workload"
)

// E13Config sizes the traced latency-breakdown experiment.
type E13Config struct {
	Andrew workload.AndrewConfig
}

// DefaultE13 traces the full Andrew benchmark.
func DefaultE13() E13Config {
	return E13Config{Andrew: workload.DefaultAndrew()}
}

// E13LatencyBreakdown runs the five-phase benchmark cold against a remote
// server with distributed tracing on, in both modes, and decomposes each
// operation's end-to-end latency into client, server and network components
// on the critical path. This is the instrumented version of the paper's
// §5.2 cost accounting: it shows where the prototype's time went (server
// service time on validates and walks) and what the revised design moved
// off the servers.
func E13LatencyBreakdown(cfg E13Config) (*Report, error) {
	r := newReport("E13", "Critical-path latency breakdown (traced Andrew run)",
		"server service time, not the network, bounds prototype performance (§5.2)",
		"mode", "op", "n", "mean", "client", "server", "net-queue", "net-serial", "net-prop")
	for _, mode := range []itcfs.Mode{itcfs.Prototype, itcfs.Revised} {
		tracer, err := tracedAndrew(mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("E13 %v: %w", mode, err)
		}
		rows := trace.Analyze(tracer.Spans())
		var total, client, server, net time.Duration
		for _, b := range rows {
			if b.Count == 0 {
				continue
			}
			n := time.Duration(b.Count)
			r.addRow(mode.String(), b.Name, fmt.Sprint(b.Count),
				fmt.Sprint(b.Total/n), fmt.Sprint(b.Client/n), fmt.Sprint(b.Server/n),
				fmt.Sprint(b.NetQueue/n), fmt.Sprint(b.NetSerial/n), fmt.Sprint(b.NetProp/n))
			total += b.Total
			client += b.Client
			server += b.Server
			net += b.Net()
			// Exactness check: components must reassemble the measured
			// end-to-end time (acceptance bound is ±1%; the accounting is
			// designed to be exact on a fault-free network).
			gap := b.Total - b.Client - b.Server - b.Net()
			if gap < 0 {
				gap = -gap
			}
			key := mode.String() + "_sum_err"
			if rel := float64(gap) / float64(b.Total); rel > r.Metrics[key] {
				r.Metrics[key] = rel
			}
			key = mode.String() + "_min_client_ns"
			if v := float64(b.Client); b.Count > 0 && (r.Metrics[key] == 0 || v < r.Metrics[key]) {
				r.Metrics[key] = v
			}
		}
		if total > 0 {
			r.Metrics[mode.String()+"_client_frac"] = float64(client) / float64(total)
			r.Metrics[mode.String()+"_server_frac"] = float64(server) / float64(total)
			r.Metrics[mode.String()+"_net_frac"] = float64(net) / float64(total)
		}
	}
	return r, nil
}

// ExportTracedAndrew runs the traced benchmark in one mode and writes the
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing) to w.
func ExportTracedAndrew(mode itcfs.Mode, cfg E13Config, w io.Writer) error {
	tracer, err := tracedAndrew(mode, cfg)
	if err != nil {
		return err
	}
	return tracer.ExportChrome(w)
}

// tracedAndrew provisions a cell with tracing on, installs the source tree
// from a separate workstation (so the benchmark workstation is genuinely
// cold), resets the tracer at the measurement boundary, runs the benchmark
// remotely and returns the tracer holding the measured window's spans.
func tracedAndrew(mode itcfs.Mode, cfg E13Config) (*trace.Tracer, error) {
	cell := itcfs.NewCell(itcfs.CellConfig{
		Mode:     mode,
		Clusters: 1,
		Trace:    &trace.SamplePolicy{}, // every operation
		Metrics:  trace.NewRegistry(),
	})
	if err := provision(cell, "bench"); err != nil {
		return nil, err
	}
	if _, err := andrewTree(cell, "bench-setup", cfg.Andrew); err != nil {
		return nil, err
	}
	benchWS, err := station(cell, 0, "bench-cold", "bench", nil)
	if err != nil {
		return nil, err
	}
	cell.Tracer.Reset() // measure the benchmark, not the provisioning
	err = cell.Do(func(p *sim.Proc) error {
		_, err := workload.RunAndrew(p, benchWS.FS, andrewSrc, "/vice/usr/bench/dst", cfg.Andrew)
		return err
	})
	return cell.Tracer, err
}
