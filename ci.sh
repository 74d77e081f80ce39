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

# Replication determinism smoke: two same-seed E16 runs must produce
# byte-identical reports — release pushes, the mid-run crash, failovers,
# dedup counters and the Andrew run all replay exactly — and the
# experiment's own invariants (zero failed replicated reads, a real
# unreplicated outage, dedup ratio >= 1.5) are asserted inside it. Runs
# under the race detector like the rest of the suite; kept visible as
# its own gate alongside the E15 smoke above.
go test -race -run='^TestE16Determinism$' -count=1 ./internal/harness

# Crash-matrix smoke: every injected crash point across three seeds must
# recover to exactly the acknowledged prefix (strict) or an unbroken prefix
# (generous). The full property also runs inside `go test ./...`; this keeps
# it visible as its own gate.
go test -run='^TestWALCrashProperty$' -count=1 ./internal/store/walstore

# Kernel scale smoke: the batched E14 mix at 10k clients (quick per-client
# mix) must complete, and the scale-bench JSON it emits must carry exactly
# the same keys as the committed BENCH_scale.json, so the committed
# trajectory cannot silently drift from what the tool produces. Values are
# machine-dependent and deliberately not compared.
tmpdir="$(mktemp -d)"
go run ./cmd/itcbench -run E14 -clients 10000 -quick -scale-out "$tmpdir/scale.json" >/dev/null
grep -o '"[a-z_]*":' "$tmpdir/scale.json" | sort -u > "$tmpdir/keys_new.txt"
grep -o '"[a-z_]*":' BENCH_scale.json | sort -u > "$tmpdir/keys_committed.txt"
cmp "$tmpdir/keys_new.txt" "$tmpdir/keys_committed.txt"
rm -rf "$tmpdir"

# Observability-at-scale smoke: the E17 ablation at 10k clients (quick mix)
# must complete — which also enforces its built-in inertness guard (tracing
# off/sampled/full produce identical virtual timelines and byte-identical
# metric registries) and fires the seeded SLO breach with its critical-path
# attribution — and the JSON it emits must carry exactly the same keys as
# the committed BENCH_obs.json. Values are machine-dependent and
# deliberately not compared; the committed 30k overhead numbers are
# regenerated with: go run ./cmd/itcbench -run E17 -scale-reps 5 -obs-out BENCH_obs.json
tmpdir="$(mktemp -d)"
go run ./cmd/itcbench -run E17 -clients 10000 -obs-out "$tmpdir/obs.json" >/dev/null
grep -o '"[a-z_]*":' "$tmpdir/obs.json" | sort -u > "$tmpdir/keys_new.txt"
grep -o '"[a-z_]*":' BENCH_obs.json | sort -u > "$tmpdir/keys_committed.txt"
cmp "$tmpdir/keys_new.txt" "$tmpdir/keys_committed.txt"
rm -rf "$tmpdir"

# Observability zero-alloc gates, visible as their own pass: the sampled-out
# trace path and the striped-counter hot path must not allocate (these also
# run inside `go test ./...` above).
go test -run='^Test(SampledOutPathAllocFree|StripedCounterAllocFree|DisabledPathsAllocFree)$' -count=1 ./internal/trace

# Real-transport gates, visible as their own pass (they also run inside
# `go test ./...` above): a 4 MiB transfer through a Peer pair allocates at
# most 1.1 x payload per direction and a null call no more objects than the
# pinned count (one buffer per bulk transfer); a peer that has not
# authenticated cannot make either handshake role allocate on the strength
# of a length prefix; the streamed frame is byte for byte what
# WriteFrame(Seal(...)) puts on the wire; a WAL commit allocates the record it
# appends and nothing else of that size; and a checkpoint is built once (at
# most 2.2 x the image) and refused, with nothing written, when recovery could
# not read it back.
go test -run='^Test(PeerBulkTransferAllocs|PeerNullCallAllocs|HandshakeFrameCap)$' -count=1 ./internal/rpc
go test -run='^TestSealFrameMatchesSeal$' -count=1 ./internal/secure
go test -run='^Test(CommitBuildsRecordInOneBuffer|CheckpointBuildsSnapshotOnce|CheckpointRefusesUnreadableSnapshot)$' -count=1 ./internal/store/walstore

# Hand-over gates (the hops either side of the transport): a 4 MiB fetch
# through Venus.Open allocates the receive buffer and nothing else of that
# size, a 4 MiB handleStore on a walstore only the WAL record, the choice is
# made by size on both ends, and decoding a message allocates nothing (the
# null-call count above covers the tag check). The ownership rules they lean on — a lent slice is
# never written after hand-out, a clone's bytes survive a store to its
# parent, a store in flight carries the bytes it began with — run under the
# race detector, where an in-place write to lent bytes is a reported race.
go test -run='^Test(FetchKeepsTheReceiveBuffer|FetchHandOverIsChosenBySize)$' -count=1 ./internal/venus
go test -run='^TestHandleStoreAllocatesOnlyTheRecord$' -count=1 ./internal/vice
go test -run='^TestUnmarshalDoesNotAllocate$' -count=1 ./internal/proto
go test -race -run='^Test(OwnershipModel|WriteAtUsesSpareCapacity)$' -count=1 ./internal/unixfs
go test -race -run='^TestWriteDuringStoreLeavesLentBytesAlone$' -count=1 ./internal/venus
go test -race -run='^TestStoreCloneStoreLeavesCloneUntouched$' -count=1 ./internal/vice

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
