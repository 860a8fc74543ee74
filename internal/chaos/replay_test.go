package chaos

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// replay is what one soak run leaves for TestSoakReplay to compare.
type replay struct {
	canonical  string
	trace      []byte // merged Perfetto trace; nil where the soak has none
	violations []string
}

// setting is one execution schedule a soak must replay under. workers
// is ExecWorkers for the sharded and cluster soaks and the trace
// generation pool size for the workload soaks (1 = serial, 0 =
// GOMAXPROCS); a non-zero procs pins GOMAXPROCS for the run.
type setting struct{ workers, procs int }

var (
	serialTwice    = []setting{{workers: 1}, {workers: 1}}
	engineSettings = []setting{{workers: 1}, {workers: 4}, {workers: 0, procs: 2}}
	poolSettings   = []setting{{workers: 1}, {workers: 2}, {procs: 1}, {procs: 2}}
)

// pool maps a setting's worker count to a trace-generation pool.
func pool(workers int) *runner.Pool {
	if workers == 1 {
		return nil
	}
	return runner.New(workers)
}

func deviceReplay(rep Report, err error) (replay, error) {
	return replay{canonical: rep.Canonical, violations: rep.Violations}, err
}

func workloadReplay(rep WorkloadReport, err error) (replay, error) {
	return replay{canonical: rep.Canonical, violations: rep.Violations}, err
}

// soak is one row of the replay gate: the seeds it replays, the
// execution schedules they must replay under, and how to run it.
type soak struct {
	name     string
	long     bool    // skipped under -short
	seeds    []int64 // each replayed under every setting
	other    int64   // must render a different report than seeds[0]; 0 = not checked
	settings []setting
	run      func(seed int64, workers int) (replay, error)
}

// checkReplay requires each of tc's seeds to render a byte-identical
// canonical report (and merged trace, where the soak has one) under
// every setting, with no violation, and tc.other to render a different
// report.
func checkReplay(t *testing.T, tc soak) {
	t.Helper()
	if tc.long && testing.Short() {
		t.Skip("replay soak is the long half of the gate")
	}
	run := func(seed int64, s setting) replay {
		t.Helper()
		if s.procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.procs))
		}
		r, err := tc.run(seed, s.workers)
		if err != nil {
			t.Fatalf("seed %d %+v: harness error: %v", seed, s, err)
		}
		return r
	}
	var first string
	for _, seed := range tc.seeds {
		ref := run(seed, tc.settings[0])
		for _, v := range ref.violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		for _, s := range tc.settings[1:] {
			got := run(seed, s)
			if got.canonical != ref.canonical {
				t.Fatalf("seed %d: report under %+v differs from %+v:\n--- reference ---\n%s--- replay ---\n%s",
					seed, s, tc.settings[0], ref.canonical, got.canonical)
			}
			if !bytes.Equal(got.trace, ref.trace) {
				t.Fatalf("seed %d: trace under %+v differs from %+v (%d vs %d bytes)",
					seed, s, tc.settings[0], len(got.trace), len(ref.trace))
			}
		}
		if first == "" {
			first = ref.canonical
		}
	}
	if tc.other != 0 && run(tc.other, tc.settings[0]).canonical == first {
		t.Fatalf("seeds %d and %d rendered identical reports", tc.seeds[0], tc.other)
	}
}

// TestSoakReplay is the replay gate of the device, sharded and workload
// soaks, one subtest per soak; the cluster soak's replay gate is
// TestClusterSoakDeterministic and TestClusterScheduleDerivation.
func TestSoakReplay(t *testing.T) {
	for _, tc := range []soak{
		{"chaos", false, []int64{42, 4242, 424242}, 1000, serialTwice, func(seed int64, _ int) (replay, error) {
			tr := telemetry.New()
			r, err := deviceReplay(Run(seed, 12, tr))
			r.trace = tr.PerfettoJSON()
			return r, err
		}},
		{"fleet", false, []int64{42, 4242, 424242}, 5000, serialTwice, func(seed int64, _ int) (replay, error) {
			tr := telemetry.New()
			r, err := deviceReplay(RunFleet(seed, 16, tr))
			r.trace = tr.PerfettoJSON()
			return r, err
		}},
		{"rdma", false, []int64{13, 1313, 131313}, 9000, serialTwice, func(seed int64, _ int) (replay, error) {
			return deviceReplay(RunRDMA(seed, 24))
		}},
		{"sharded", false, []int64{42}, 43, engineSettings, func(seed int64, workers int) (replay, error) {
			rep, sc, err := RunSharded(seed, ShardedSoakConfig{ExecWorkers: workers, MeasurePs: sim.Ms, Trace: true})
			if err != nil {
				return replay{}, err
			}
			return replay{rep.Canonical, sc.MergedTrace().PerfettoJSON(), rep.Violations}, nil
		}},
		{"workload", true, []int64{11}, 12, poolSettings, func(seed int64, workers int) (replay, error) {
			return workloadReplay(RunWorkloadSoak(seed, pool(workers)))
		}},
		{"incident", true, []int64{7}, 8, poolSettings, func(seed int64, workers int) (replay, error) {
			return workloadReplay(RunIncidentSoak(seed, pool(workers)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkReplay(t, tc) })
	}
}

// clusterReplay runs one traced cluster schedule.
func clusterReplay(seed int64, workers int) (replay, error) {
	rep, c, err := RunCluster(seed, ClusterSoakConfig{ExecWorkers: workers, Trace: true})
	if err != nil {
		return replay{}, err
	}
	return replay{rep.Canonical, c.MergedTrace().PerfettoJSON(), rep.Violations}, nil
}

// TestClusterSoakDeterministic is the cluster trace gate: the same
// chaos schedule renders a byte-identical report and merged trace
// under serial execution, parallel execution, and GOMAXPROCS=2.
func TestClusterSoakDeterministic(t *testing.T) {
	checkReplay(t, soak{seeds: []int64{424242}, settings: engineSettings, run: clusterReplay})
}

// TestClusterScheduleDerivation pins seed-replayability of the plan
// itself: same seed, same report; different seed, different plan.
func TestClusterScheduleDerivation(t *testing.T) {
	checkReplay(t, soak{seeds: []int64{77}, other: 78, settings: serialTwice, run: clusterReplay})
}
