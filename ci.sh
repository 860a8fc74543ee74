#!/bin/sh
# Tier-1+ gate for this repository. Run before every merge:
#
#   ./ci.sh
#
# Stages:
#   1. go vet       — static checks across the module
#   2. go build     — everything compiles, including cmds and examples
#   3. chaos smoke  — the bounded (-short) chaos soak first: randomized
#                     fault schedules against the cross-layer invariants,
#                     cheap enough to fail fast before the long stages
#   4. wall-clock gate — no simulator code may read the host clock:
#                     trace timestamps come from simulated picoseconds
#                     only, so any time.Now() inside internal/ breaks
#                     byte-reproducible traces and fails the build
#   5. race tests   — the concurrency-bearing packages (the runner pool,
#                     the event kernel, the offload/nettcp layers the
#                     server model drives from pool workers, the fleet
#                     dispatcher's determinism gate, and telemetry
#                     tracing under the parallel runner) under -race
#   6. golden trace — the Perfetto exporter against its committed golden
#                     file plus the full-stack byte-reproducibility gate
#   7. tracestat golden — the trace analyzers (profile tree, critical
#                     path) against their committed golden table, plus
#                     the serial/pooled/GOMAXPROCS=2 byte-identity gate
#                     and the `go tool pprof` acceptance check
#   8. shard gate   — the sharded PDES engine: the serial-reference vs
#                     parallel-epoch vs GOMAXPROCS=2 byte-identity gates
#                     (engine, full cluster, fault-injected soak) under
#                     -race, plus structural grep gates: goroutines in
#                     internal/sim only in the sharded executor, no
#                     package-level mutable state in the shard code
#   9. KPI bench    — the pinned deterministic scenarios from
#                     internal/profile, gated against BENCH_baseline.json
#                     (writes BENCH_results.json); re-pin an intended
#                     change with `go run ./cmd/tracestat -bench
#                     -update-baseline`
#  10. go test      — the full suite with a shuffled test order: the
#                     serial-vs-parallel sweep determinism gate plus the
#                     full 200-schedule chaos soak, and -shuffle guards
#                     against inter-test state leaking into results
#
#  11. cluster gate — the replicated tier: the bounded cluster chaos
#                     soak (kills, asymmetric partitions, drain/rejoin
#                     against the linearizability checker) under -race,
#                     the cluster byte-identical-trace and
#                     any-worker-count determinism gates, and the KPI
#                     bench gate (which includes the pinned
#                     cluster-3node scenario)
#
#  12. rdma gate   — the zero-copy peer-DMA data path: the RDMA NIC /
#                     nettcp / fleet MR-locality tests and the
#                     serial-vs-pooled-vs-GOMAXPROCS=2 byte-identity
#                     gate for the rdma figure under -race, the bounded
#                     RDMA chaos soak (doorbell loss, RNR, MR-unregister
#                     and mid-migration races), and the KPI bench gate
#                     (which includes the pinned rdma-4rank scenario)
#
#  13. workload gate — the production workload suite + SLO autoscaler:
#                     the zipf/KV/embed source unit tests, the arrival
#                     trace determinism gates, the autoscaler hysteresis
#                     tests, the fleet admin-drain/telemetry tests, and
#                     the bounded flash-crowd + rank-fault soak — all
#                     under -race — plus the KPI bench gate (which
#                     includes the pinned kv-4rank/embed-4rank
#                     scenarios)
#
#  14. obs gate   — the observability plane: the series store / alert
#                     engine / flight recorder unit tests under -race,
#                     and the incident soak — the hardened flash-crowd +
#                     rank-fault scenario with alerting and recording
#                     armed — whose run canonical AND every incident
#                     bundle must replay byte-identically serial vs
#                     pooled vs GOMAXPROCS=2
#
#  15. fuzz gate  — not part of the default run; `./ci.sh fuzz` only.
#                     The differential fuzz targets, each for a bounded
#                     -fuzztime: FuzzFieldMul (word-level GF(2^128)
#                     multiply against the bit-serial oracle),
#                     FuzzCachelineEngine (the TLS DSA's engine fed a
#                     fuzzed cacheline order against crypto/cipher's
#                     GCM) and FuzzGCMSealOpen (GCM.Seal/Open against
#                     crypto/cipher's GCM). The bound stays short because
#                     the fuzzer's exec rate collapses after about 200k
#                     execs on a 2-core host. Their committed seed
#                     corpora run on every `go test`.
#
# Every go test invocation is one row of the stage table below. Before
# a row runs, its top-level -run pattern must name at least one test in
# each of its packages, so a renamed test cannot silently drop out of a
# gate. -run splits its pattern on '/' at every level, so a row that
# selects one TestSoakReplay subtest carries only that pattern.
#
# `./ci.sh bench` runs only the KPI bench stage — the quick loop while
# tuning performance. `./ci.sh shard` runs only the shard gate.
# `./ci.sh cluster` runs only the cluster gate. `./ci.sh rdma` runs
# only the rdma gate. `./ci.sh workload` runs only the workload gate.
# `./ci.sh obs` runs only the obs gate. `./ci.sh fuzz` runs only the
# fuzz gate.
set -eu
cd "$(dirname "$0")"

# The stage table, one go test invocation per row:
#   stage  flags (comma-separated, - for none)  -run pattern (- for all)  packages
stage_table() {
	cat <<'EOF'
smoke     -short        -  ./internal/chaos/
race      -race         -  ./internal/runner/ ./internal/sim/ ./internal/offload/ ./internal/nettcp/ ./internal/fleet/ ./internal/telemetry/
golden    -             TestPerfettoGolden|TestFullStackTraceReproducible  ./internal/telemetry/
tracestat -             TestCritPathGolden|TestTracestatByteIdenticalAcrossSchedulers  ./internal/experiments/
tracestat -             TestGoToolPprofAcceptsExport  ./internal/profile/
shard     -race         Shard  ./internal/sim/ ./internal/fleet/ ./internal/chaos/
shard     -race         TestSoakReplay/^sharded$  ./internal/chaos/
cluster   -race,-short  TestClusterSoakSchedules  ./internal/chaos/
cluster   -race,-short  TestClusterSoakDeterministic|TestClusterScheduleDerivation  ./internal/chaos/
cluster   -race         TestClusterDeterministicAcrossWorkers|TestClusterServesLinearizably  ./internal/cluster/
rdma      -race         RDMA  ./internal/rdma/ ./internal/nettcp/ ./internal/fleet/ ./internal/experiments/
rdma      -race,-short  TestRDMASoak  ./internal/chaos/
rdma      -race,-short  TestSoakReplay/^rdma$  ./internal/chaos/
workload  -race         -  ./internal/workload/ ./internal/autoscale/ ./internal/wrkgen/
workload  -race         TestFleetDrainAdmitHeld|TestFleetSetPolicyLive|TestFleetQDepthTelemetry|TestFleetMetricsConcurrentRegistration  ./internal/fleet/
workload  -race,-short  TestWorkloadSoak  ./internal/chaos/
obs       -race         -  ./internal/obs/
obs       -             TestIncidentSoak  ./internal/chaos/
obs       -             TestSoakReplay/^incident$  ./internal/chaos/
full      -shuffle=on   -  ./...
EOF
}

# require_tests PATTERN PKG fails unless PATTERN names a test in PKG.
require_tests() {
	if ! go test -list "$1" "$2" </dev/null | grep -Eq '^(Test|Fuzz)'; then
		echo "ci.sh: -run '$1' matches no test in $2" >&2
		exit 1
	fi
}

# run_stage STAGE runs every table row of STAGE in order.
run_stage() {
	stage_table | while read -r stage flags pattern pkgs; do
		[ "$stage" = "$1" ] || continue
		if [ "$flags" = "-" ]; then flags=""; else flags=$(echo "$flags" | tr , ' '); fi
		if [ "$pattern" = "-" ]; then
			echo "== $stage: go test $flags $pkgs"
			go test $flags $pkgs </dev/null
			continue
		fi
		for pkg in $pkgs; do
			require_tests "${pattern%%/*}" "$pkg"
		done
		echo "== $stage: go test $flags -run '$pattern' $pkgs"
		go test $flags -run "$pattern" $pkgs </dev/null
	done
}

run_bench() {
	echo "== KPI bench gate (BENCH_baseline.json, results in BENCH_results.json)"
	go run ./cmd/tracestat -bench -baseline BENCH_baseline.json -out BENCH_results.json
}

run_shard() {
	run_stage shard

	# Parallel epoch execution must stay confined to the sharded executor:
	# shard-local model code is written single-threaded and relies on it.
	if grep -rn "go func" internal/sim/ --include="*.go" --exclude="*_test.go" --exclude="shard.go"; then
		echo "ci.sh: goroutine outside internal/sim/shard.go — only the epoch executor may spawn" >&2
		exit 1
	fi
	# The shard executor itself must hold no cross-run mutable state:
	# package-level vars would be shared across shards and break the
	# nothing-shared determinism argument.
	if grep -n "^var " internal/sim/shard.go; then
		echo "ci.sh: package-level var in internal/sim/shard.go — shard state must live in ShardedEngine" >&2
		exit 1
	fi
}

run_fuzz() {
	echo "== fuzz gate: differential targets, bounded -fuzztime each"
	for target in FuzzFieldMul FuzzCachelineEngine FuzzGCMSealOpen; do
		require_tests "^$target\$" ./internal/aesgcm/
		go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/aesgcm/
	done
}

case "${1:-}" in
bench) run_bench; exit 0 ;;
shard) run_shard; exit 0 ;;
cluster | rdma | workload) run_stage "$1"; run_bench; exit 0 ;;
obs) run_stage obs; exit 0 ;;
fuzz) run_fuzz; exit 0 ;;
esac

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

run_stage smoke

echo "== wall-clock gate (no time.Now() in internal/ or cmd/)"
# internal/ is absolute: simulator code must use simulated picoseconds.
# cmd/ may measure host wall-clock only where annotated `wallclock:ok`
# (the shard-scaling figure, the bench's injected clock).
if grep -rn "time\.Now()" internal/ --include="*.go"; then
	echo "ci.sh: time.Now() found in internal/ — simulator code must use simulated time" >&2
	exit 1
fi
if grep -rn "time\.Now()" cmd/ --include="*.go" | grep -v "wallclock:ok"; then
	echo "ci.sh: unannotated time.Now() in cmd/ — annotate intentional host-clock reads with wallclock:ok" >&2
	exit 1
fi

run_stage race
run_stage golden
run_stage tracestat
run_shard
run_stage cluster
run_stage rdma
run_stage workload
run_stage obs
run_bench
run_stage full

echo "ci.sh: all gates passed"
