#!/bin/sh
# CI gate: static checks, the full test suite under the race detector, and
# a plain run (which is also what the tier-1 acceptance uses).
set -eux

cd "$(dirname "$0")"

go vet ./...
go build ./...

# Project-specific static analysis (tools/itcvet), a hard gate ahead of the
# race pass: wall-clock bans in deterministic code, unseeded global rand,
# guarded-field lock discipline, map-iteration order leaking into ordered
# outputs, lock-order cycles and blocking-while-locked (lockorder), dropped
# durability errors (durcheck), and coverage drift — fuzz targets absent
# from this script, unpaired or untested codecs, uncontracted mutexes
# (driftcheck). Runs over ./... which includes ./tools/... itself, so the
# analyzers are held to their own rules. A finding fails CI.
go build -o itcvet ./tools/itcvet
go vet -vettool="$(pwd)/itcvet" ./...

# Lock-order graph: byte-identical across runs (determinism), acyclic
# (-lockgraph exits nonzero on a cycle), and matching the copy embedded in
# DESIGN.md section 7 so the documented graph cannot drift from the code.
# Regenerate the doc block with: ./itcvet -lockgraph ./...
lgdir="$(mktemp -d)"
./itcvet -lockgraph ./... > "$lgdir/g1.txt"
./itcvet -lockgraph ./... > "$lgdir/g2.txt"
cmp "$lgdir/g1.txt" "$lgdir/g2.txt"
sed -n '/<!-- lockgraph:begin -->/,/<!-- lockgraph:end -->/p' DESIGN.md \
	| sed '1d;$d' | sed '/^```/d' > "$lgdir/doc.txt"
cmp "$lgdir/g1.txt" "$lgdir/doc.txt"
rm -rf "$lgdir"
rm -f itcvet

# Known-vulnerability scan: advisory only (the tool and its vuln DB need
# network access, which CI containers may not have).
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./... || echo "govulncheck: advisories above (non-fatal)"
else
	echo "govulncheck not installed; skipping vulnerability scan"
fi

# Every Go test in the module, under the race detector and plain: the
# zero-alloc, real-transport and hand-over gates, the WAL crash matrix, the
# E12–E17 determinism suites, and the schema of the committed
# BENCH_scale.json/BENCH_obs.json against the result types that emit them
# (TestCommittedBenchFilesMatchTheirTypes) are all ordinary tests.
go test -race ./...
go test ./...

# The benchmark is its own module (bench/go.mod), so ./... above does not
# reach it; its tests check BENCHMARK.json against bench/spec.go and drive
# every workload at small size through the real transport.
(cd bench && go test ./...)

# Shuffled run: catches tests that only pass because of package-level state
# left behind by an earlier test in file order.
go test -shuffle=on ./...

# Telemetry determinism smoke: two same-seed E15 runs must export
# byte-identical timeline dashboards, flight recordings and series CSVs
# through the real itcbench surfaces, not just the in-process test.
tmpdir="$(mktemp -d)"
go run ./cmd/itcbench -quick -run E15 -timeline-out "$tmpdir/t1.txt" -series-out "$tmpdir/s1.csv" >/dev/null
go run ./cmd/itcbench -quick -run E15 -timeline-out "$tmpdir/t2.txt" -series-out "$tmpdir/s2.csv" >/dev/null
cmp "$tmpdir/t1.txt" "$tmpdir/t2.txt"
cmp "$tmpdir/s1.csv" "$tmpdir/s2.csv"
rm -rf "$tmpdir"

# Kernel scale smoke: the batched E14 mix at 10k clients (quick per-client
# mix) must complete through the real itcbench surface and write its
# scale-bench JSON.
tmpdir="$(mktemp -d)"
go run ./cmd/itcbench -run E14 -clients 10000 -quick -scale-out "$tmpdir/scale.json" >/dev/null
test -s "$tmpdir/scale.json"
rm -rf "$tmpdir"

# Observability-at-scale smoke: the E17 ablation at 10k clients (quick mix)
# must complete — which also enforces its built-in inertness guard (tracing
# off/sampled/full produce identical virtual timelines and byte-identical
# metric registries) and fires the seeded SLO breach with its critical-path
# attribution — and write its JSON. The committed 30k overhead numbers are
# regenerated with: go run ./cmd/itcbench -run E17 -scale-reps 5 -obs-out BENCH_obs.json
tmpdir="$(mktemp -d)"
go run ./cmd/itcbench -run E17 -clients 10000 -obs-out "$tmpdir/obs.json" >/dev/null
test -s "$tmpdir/obs.json"
rm -rf "$tmpdir"

# Sim-kernel micro-benchmarks, one short pass each: keeps the park/resume,
# mailbox and timetable benches building and running. The zero-alloc gates
# (TestMailboxPutGetZeroAlloc and friends) run in `go test ./...` above.
go test -run=NONE -bench='^Benchmark(ParkResume|MailboxSendRecv|ScheduleDrain)$' -benchtime=100x ./internal/sim

# Short fuzz passes over the attacker-facing decoders and the path walker.
go test -run=NONE -fuzz='^FuzzDecodeCall$' -fuzztime=10s ./internal/rpc
go test -run=NONE -fuzz='^FuzzDecodeReply$' -fuzztime=10s ./internal/rpc
go test -run=NONE -fuzz='^FuzzPeerFrames$' -fuzztime=10s ./internal/rpc
go test -run=NONE -fuzz='^FuzzResolvePath$' -fuzztime=10s ./internal/vice
go test -run=NONE -fuzz='^FuzzDispatch$' -fuzztime=10s ./internal/vice
go test -run=NONE -fuzz='^FuzzLocEntry$' -fuzztime=10s ./internal/proto
go test -run=NONE -fuzz='^FuzzDecodeBulkTestValid$' -fuzztime=10s ./internal/wire
go test -run=NONE -fuzz='^FuzzDecodeBulkBreak$' -fuzztime=10s ./internal/wire
go test -run=NONE -fuzz='^FuzzWALReplay$' -fuzztime=10s ./internal/store/walstore
go test -run=NONE -fuzz='^FuzzReadRecord$' -fuzztime=10s ./internal/store/walstore
