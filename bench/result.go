package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports, and the only thing that
// writes the benchmark's JSON: the last line of standard output is exactly
// this object. Metrics holds every end-to-end metric in an untraced run and
// every per-layer metric in a traced one.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is a Result with the context a reader needs: where and how it was
// measured, what else was observed, and what went wrong.
type Report struct {
	Result
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Env      Env     `json:"env"`
	Rounds   int     `json:"rounds"`
	Ops      float64 `json:"ops"`
	OpsHash  string  `json:"ops_hash"`
	// RoundUsPerOp is each measured round's wall time per op, in order.
	RoundUsPerOp []float64 `json:"round_us_per_op"`
	// Detail holds what an untraced run measures beyond the end-to-end
	// metrics every workload shares: the latency classes that occur on this
	// workload (median and tail), throughput in bytes, RPCs per op, disk
	// amplification, the failure ratio. Absent means not applicable.
	Detail map[string]Metric `json:"detail,omitempty"`
	// Samples is the sample count behind each latency in Metrics or Detail.
	Samples  map[string]int `json:"samples,omitempty"`
	Problems []string       `json:"problems,omitempty"`
	Notes    []string       `json:"notes,omitempty"`
}

// Env records the machine and the settings; wall-clock numbers mean nothing
// without it.
type Env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Transport  string `json:"transport"`
	Disk       string `json:"disk"`
}

func (r *Report) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]Metric)
	}
	r.Metrics[name] = Metric{Value: v, Unit: unitOf(name)}
}

func (r *Report) detail(name, unit string, v float64) {
	if r.Detail == nil {
		r.Detail = make(map[string]Metric)
	}
	r.Detail[name] = Metric{Value: v, Unit: unit}
}

func (r *Report) sampleCount(name string, n int) {
	if r.Samples == nil {
		r.Samples = make(map[string]int)
	}
	r.Samples[name] = n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeText prints the report for a person: header, then every metric by
// name with its unit.
func (r *Report) writeText(w io.Writer) {
	mode := "end-to-end (no interposers)"
	if r.Traced {
		mode = "traced (S1-S6 interposers on odd rounds, ladder afterwards)"
	}
	fmt.Fprintf(w, "itcperf %s seed=%d seconds=%g %s\n", r.Workload, r.Seed, r.Seconds, mode)
	e := r.Env
	fmt.Fprintf(w, "  commit %s  %s  nproc=%d GOMAXPROCS=%d  kernel %s\n", e.Commit, e.GoVersion, e.NProc, e.GOMAXPROCS, e.Kernel)
	fmt.Fprintf(w, "  %s; %s\n", e.Transport, e.Disk)
	fmt.Fprintf(w, "  rounds=%d ops=%.0f ops_hash=%s attempted=%d failed=%d correct=%t\n",
		r.Rounds, r.Ops, r.OpsHash, r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	print := func(m map[string]Metric) {
		for _, k := range sortedKeys(m) {
			line := fmt.Sprintf("  %-34s %16.4f %s", k, m[k].Value, m[k].Unit)
			if n, ok := r.Samples[k]; ok {
				line += fmt.Sprintf("  (n=%d)", n)
			}
			fmt.Fprintln(w, line)
		}
	}
	print(r.Metrics)
	if len(r.Detail) > 0 {
		fmt.Fprintln(w, "  -- also measured on this workload --")
		print(r.Detail)
	}
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
