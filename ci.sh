#!/bin/sh
# CI gate: static checks, the full test suite under the race detector, and
# a plain run (which is also what the tier-1 acceptance uses).
set -eux

cd "$(dirname "$0")"

go vet ./...
go build ./...
# Every Go file in the tree is gofmt-formatted, testdata fixtures included.
test -z "$(gofmt -l .)"

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
# The benchmark is its own module (bench/go.mod), which ./... does not reach.
# It compiles against the Peer API, so it is vetted the same two ways.
(cd bench && go vet ./... && go vet -vettool="$(pwd)/../itcvet" ./...)
rm -f itcvet
# The lock-order graph — byte-identical across runs, acyclic, and equal to
# the copy embedded in DESIGN.md section 7 — is checked by tools/itcvet's
# TestDeterminism in the test passes below.

# The ledgers a CHANGES.md entry quotes — code lines per package, exported
# names, the exported functions and methods only tests call (test-only,
# each pinned with its reason by tools/ledger's TestTestOnlyNamesArePinned),
# options, locks and edges — printed so a PR's table is this output at the
# parent beside this output at the change.
go run ./tools/ledger

# Known-vulnerability scan: advisory only (the tool and its vuln DB need
# network access, which CI containers may not have).
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./... || echo "govulncheck: advisories above (non-fatal)"
else
	echo "govulncheck not installed; skipping vulnerability scan"
fi

# Every Go test in the module, under the race detector and plain: the
# real path's cost table (internal/virtue's TestRealPathBudget, which skips
# under -race), the transport's and simulator's zero-alloc gates, the
# real-transport and hand-over tests, the WAL crash matrix, the
# E12–E17 determinism suites (E12's chaos invariants hold in both modes
# under twenty seeds' fault schedules: TestChaosInvariantsAcrossSeeds,
# internal/fault), the golden of `itcbench -quick`, the five
# Examples' outputs (example_test.go: the paper's user stories), and the schema
# of the committed BENCH_scale.json/BENCH_obs.json against the result types
# that emit them (TestCommittedBenchFilesMatchTheirTypes) are all ordinary
# tests.
go test -race ./...
go test ./...

# The real transport lends every frame under the hand-over size from a pool
# and takes it back: a reply read after its buffer was lent again would be
# another call's bytes. Its calls wait on pooled slots, each a channel and a
# deadline timer, which a reply racing its deadline could leave holding a
# stale outcome or a stale fire. Such races show rarely, so the test that
# crosses every tier under concurrent calls and callbacks, and the two that
# put calls' deadlines against their replies, run twenty times more.
go test -race -count=20 -run='^(TestPeerLentBuffersUnderLoad|TestPeerReusedChannelsCarryNoStaleOutcome|TestSimCallbackIsImpatientCallIsNot)$' ./internal/rpc
# A real workstation drops a connection that ends, from the watch Venus
# keeps on it, while a call that failed on the same connection may be
# dropping it too; either may come first, and it must count once. The two
# tests that end a station's connection under it run ten times more.
go test -race -count=10 -run='^TestRealCellStationOutlivesItsConnection$' .
# A real server worker serves call after call on one process without a
# kernel, whose ambient span each call's rpc.serve is until its reply: a span
# left installed there would show as a wrong parent. The two tests that check
# a real trace's links run ten times more.
go test -race -count=10 -run='^(TestRealCellTraceLinksTheClientsCall|TestRealCellTraceLinksTheBreakToTheStore)$' .
go test -race -count=10 -run='^TestShellOutlivesADroppedConnection$' ./cmd/itcfs
# Every served call is observed on both carriers: a Vice server notes the
# volume a call touched under the worker's process in one map, and the call's
# observation takes the entry out. On real Peers the workers write that map
# from concurrent goroutines, and an entry lost or left behind shows only when
# calls interleave. The test whose eight connections call on two volumes at
# once runs ten times more.
go test -race -count=10 -run='^TestConcurrentServedCallsObserveTheirVolume$' ./internal/vice
# A cache install takes over the cache file of the entry it evicts, while
# other goroutines' opens race for that same victim; ten more runs.
go test -race -count=10 -run='^TestConcurrentOpensUnderEviction$' ./internal/venus
# From the hand-over size on, a cold ReadFile returns the reply's frame while
# the cache's copy lands in a victim's buffer; ten more runs of the twin that
# checks no reader's result is ever a buffer the cache reuses.
go test -race -count=10 -run='^TestConcurrentReadFilesUnderEviction$' ./internal/venus
# A session Box seals every record under a nonce of its own, its end's role
# and a count taken under the send lock: two records under one count would
# reuse a GCM nonce under the session key. The reference test and the one
# that seals from many goroutines on one Box run ten times more.
go test -race -count=10 -run='^(TestRecordsMatchAReferenceAEAD|TestConcurrentSealsTakeDisjointNonces)$' ./internal/secure
# A store lends the cache file's own bytes to its call and ends the loan when
# Call returns; a write then edits them in place, so a loan ended too early,
# or a return that ends another borrower's loan, shows as bytes changing
# under a reader. The tests that write beside loans run ten times more.
go test -race -count=10 -run='^(TestWriteDuringStoreLeavesLentBytesAlone|TestConcurrentHandlesRaceFree)$' ./internal/venus
go test -race -count=10 -run='^TestOwnershipModel$' ./internal/unixfs
# A simulated cell's workstations keep their files' bytes once, in one
# content table; shared bytes are never written in place, and each file
# holds one reference to them until its data stops naming them. Two file
# systems on one table, on two goroutines, install, write and remove the
# same contents at once; a write to shared bytes shows as a race with the
# other's reads, and a reference miscounted as a table not empty at the end.
go test -race -count=5 -run='^TestSharedOwnershipModel$' ./internal/unixfs
# A call's message bodies are lent too: a request's Body, from a pooled
# encoder, until Call returns, and a Reply's Body to the carrier until it has
# sealed the reply. A buffer given back early shows as another call's bytes,
# and only when two calls meet in it. The carrier tests, the contract test
# above among them, and the test whose concurrent opens each count their own
# cache hit run ten times more.
go test -race -count=10 -run='^(TestRequestBulkIsReadOnlyUntilCallReturns|TestPeerReplyBodiesUnderLoad|TestSimReplayCarriesTheOriginalReply)$' ./internal/rpc
go test -race -count=10 -run='^TestCacheCountersUnderConcurrentOpens$' ./internal/venus
# walstore builds every record in the store's one buffer, under its mutex,
# and a checkpoint drops that buffer between commits: a record encoded
# outside the mutex would be built over another goroutine's, and only when
# two commits meet in it. The test that commits from four goroutines around
# a checkpoint runs ten times more.
go test -race -count=10 -run='^TestConcurrentCommitsShareTheRecordBuffer$' ./internal/store/walstore

# A simulated process is a coroutine: the kernel and the process hand over
# through the runtime's coroutine switch, which is what orders their memory,
# and a finished process waits on the idle list until a Spawn or the end of
# the run. The tests that start, reuse and end processes, and those that
# check a process's panic, Goexit or stray park reaches Run's caller, run ten
# times more.
go test -race -count=10 -run='^(TestNoIdleProcessOutlivesItsRun|TestSpawnReusesAnIdleProcess|TestProcessPanicReachesRun|TestProcessGoexitReachesRun|TestParkingAProcessTheKernelDidNotDispatchPanics)$' ./internal/sim

# The real path's cost table pins every cell of every row; a pin that holds
# only on some runs is a pin to fix, so it runs five times more. The leak
# guard's own test must see the leak it plants on every run: ten more under
# the race detector.
go test -count=5 -run '^TestRealPathBudget$' ./internal/virtue
# Nor may its pins hold only on an idle machine: 2 x nproc copies of the
# table run at once, and every copy must pass.
tmpdir="$(mktemp -d)"
go test -c -o "$tmpdir/virtue.test" ./internal/virtue
pids=""
for i in $(seq $((2 * $(nproc)))); do
	(cd internal/virtue && "$tmpdir/virtue.test" -test.run '^TestRealPathBudget$' -test.count=1 >"$tmpdir/budget.$i.log" 2>&1 || { cat "$tmpdir/budget.$i.log"; exit 1; }) &
	pids="$pids $!"
done
for p in $pids; do wait "$p"; done
rm -rf "$tmpdir"
go test -race -count=10 ./internal/leakcheck

# The benchmark is its own module (bench/go.mod), so ./... above does not
# reach it; its tests check BENCHMARK.json against bench/spec.go and drive
# every workload at small size through the real transport.
(cd bench && go test ./...)

# Shuffled run: catches tests that only pass because of package-level state
# left behind by an earlier test in file order.
go test -shuffle=on ./...

# The one large-population run: the E17 ablation at 10k clients (quick mix)
# through the real itcbench surface. Its tracing-off leg is the sharded scale
# run the SCALE bench measures; the run also enforces E17's built-in inertness
# guard (tracing off/sampled/full produce identical virtual timelines and
# byte-identical metric registries), fires the seeded SLO breach with its
# critical-path attribution, and writes its JSON. Small-population runs of the
# same surfaces (-scale-out, -obs-out, same-seed E15 exports) are tests in
# cmd/itcbench. The committed 30k overhead numbers are regenerated with:
# go run ./cmd/itcbench -run E17 -scale-reps 5 -obs-out BENCH_obs.json
tmpdir="$(mktemp -d)"
go run ./cmd/itcbench -run E17 -clients 10000 -obs-out "$tmpdir/obs.json" >/dev/null
test -s "$tmpdir/obs.json"
rm -rf "$tmpdir"

# Sim-kernel micro-benchmarks, one iteration each, since `go test ./...`
# runs no benchmark: keeps every benchmark of the kernel's layer (park/resume,
# mailbox, timetable, and any added later) building and running. The
# zero-alloc gates (TestMailboxPutGetZeroAlloc and friends) run in
# `go test ./...` above.
go test -run='^$' -bench=. -benchtime=1x ./internal/sim
# The same for a sealed record's round trip, a walstore commit by the size
# of its file, and a checkpoint built from live volumes against one built
# from their images.
go test -run=NONE -bench='^BenchmarkSealOpen' -benchtime=100x ./internal/secure
go test -run=NONE -bench='^Benchmark(Commit|Checkpoint)' -benchtime=100x ./internal/store/walstore

# Short fuzz passes over the attacker-facing decoders, the path walker and
# the page protocol's handlers.
go test -run=NONE -fuzz='^FuzzDecodeCall$' -fuzztime=10s ./internal/rpc
go test -run=NONE -fuzz='^FuzzDecodeReply$' -fuzztime=10s ./internal/rpc
go test -run=NONE -fuzz='^FuzzPeerFrames$' -fuzztime=10s ./internal/rpc
go test -run=NONE -fuzz='^FuzzOpen$' -fuzztime=10s ./internal/secure
go test -run=NONE -fuzz='^FuzzResolvePath$' -fuzztime=10s ./internal/vice
go test -run=NONE -fuzz='^FuzzDispatch$' -fuzztime=10s ./internal/vice
go test -run=NONE -fuzz='^FuzzPageServer$' -fuzztime=10s ./internal/baseline
go test -run=NONE -fuzz='^FuzzLocEntry$' -fuzztime=10s ./internal/proto
go test -run=NONE -fuzz='^FuzzDirEntries$' -fuzztime=10s ./internal/proto
go test -run=NONE -fuzz='^FuzzDecodeBulkTestValid$' -fuzztime=10s ./internal/wire
go test -run=NONE -fuzz='^FuzzDecodeBulkBreak$' -fuzztime=10s ./internal/wire
go test -run=NONE -fuzz='^FuzzDecodeCommit$' -fuzztime=10s ./internal/store
go test -run=NONE -fuzz='^FuzzWALReplay$' -fuzztime=10s ./internal/store/walstore
go test -run=NONE -fuzz='^FuzzReadRecord$' -fuzztime=10s ./internal/store/walstore
