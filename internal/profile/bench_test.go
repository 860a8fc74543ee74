package profile

import (
	"bytes"
	"testing"

	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/sim"
)

// tinyScenario keeps bench tests fast: short windows, few connections.
func tinyScenario(name string) BenchScenario {
	return BenchScenario{Name: name, Placement: "smartdimm", Devices: 1, ULP: "tls",
		Msg: 1024, Conns: 16, Workers: 4, Seed: 1,
		WarmupPs: sim.Ms / 2, MeasurePs: sim.Ms}
}

// Same scenario, same KPIs, to the last bit — the property the whole
// regression gate stands on.
func TestBenchDeterministic(t *testing.T) {
	a, err := RunBenchScenario(tinyScenario("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchScenario(tinyScenario("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.KPIs) == 0 || a.KPIs["requests"] == 0 {
		t.Fatalf("no work measured: %+v", a.KPIs)
	}
	for k, av := range a.KPIs {
		if bv := b.KPIs[k]; bv != av {
			t.Fatalf("KPI %s: %v then %v — nondeterministic", k, av, bv)
		}
	}
	rep := &BenchReport{Scenarios: []BenchResult{a}}
	j1, err := MarshalBench(rep)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := MarshalBench(rep)
	if !bytes.Equal(j1, j2) {
		t.Fatal("bench JSON not byte-stable")
	}
	back, err := UnmarshalBench(j1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenarios[0].KPIs["rps"] != a.KPIs["rps"] {
		t.Fatal("JSON round trip lost a KPI")
	}
}

// A deliberately slowed hot path — the host CPU clocked down, so every
// per-byte compute cost inflates — must trip the gate against a
// baseline taken at full speed.
func TestBenchGateTripsOnSlowedHotPath(t *testing.T) {
	fast, err := RunBenchScenario(tinyScenario("gate"))
	if err != nil {
		t.Fatal(err)
	}
	slowParams := sim.DefaultParams()
	slowParams.CPUClockGHz /= 2 // everything CPU-bound halves in speed
	slow := tinyScenario("gate")
	slow.Params = &slowParams
	slowed, err := RunBenchScenario(slow)
	if err != nil {
		t.Fatal(err)
	}
	base := &BenchReport{Scenarios: []BenchResult{fast}}
	got := &BenchReport{Scenarios: []BenchResult{slowed}}
	drifts := CompareBench(base, got, 0.05)
	if len(drifts) == 0 {
		t.Fatalf("halved CPU clock produced no KPI drift\nfast: %+v\nslow: %+v", fast.KPIs, slowed.KPIs)
	}
	// An identical rerun must pass the same gate.
	again, err := RunBenchScenario(tinyScenario("gate"))
	if err != nil {
		t.Fatal(err)
	}
	if d := CompareBench(base, &BenchReport{Scenarios: []BenchResult{again}}, 0.05); len(d) != 0 {
		t.Fatalf("identical rerun tripped the gate: %v", d)
	}
}

// Missing scenarios and missing KPIs are drifts; extra ones are not.
func TestCompareBenchMissingEntries(t *testing.T) {
	base := &BenchReport{Scenarios: []BenchResult{
		{Name: "a", KPIs: map[string]float64{"rps": 100, "p99_lat_ps": 5}},
		{Name: "b", KPIs: map[string]float64{"rps": 10}},
	}}
	got := &BenchReport{Scenarios: []BenchResult{
		{Name: "a", KPIs: map[string]float64{"rps": 101, "extra": 1}}, // p99 gone, rps within 5%
	}}
	drifts := CompareBench(base, got, 0.05)
	if len(drifts) != 2 {
		t.Fatalf("drifts = %v", drifts)
	}
	seen := map[string]bool{}
	for _, d := range drifts {
		seen[d.Scenario+"/"+d.KPI] = true
		if d.String() == "" {
			t.Fatal("empty drift description")
		}
	}
	if !seen["a/p99_lat_ps"] || !seen["b/(scenario)"] {
		t.Fatalf("wrong drifts: %v", drifts)
	}
}

// build runs the builder a scenario's mode fields select, as
// smartdimm-sim does.
func build(sc BenchScenario) error {
	var err error
	switch {
	case sc.Workload != "":
		_, err = sc.WorkloadConfig()
	case sc.Shards > 0:
		_, err = sc.ShardedConfig()
	default:
		_, err = Build(sc)
	}
	return err
}

// Every combination the builder cannot serve is an error, whichever
// builder the run goes through.
func TestBuilderRejects(t *testing.T) {
	for name, mutate := range map[string]func(*BenchScenario){
		"unknown placement":        func(sc *BenchScenario) { sc.Placement = "fpga" },
		"unknown ulp":              func(sc *BenchScenario) { sc.ULP = "quic" },
		"unknown data path":        func(sc *BenchScenario) { sc.DataPath = "cxl" },
		"unknown corpus":           func(sc *BenchScenario) { sc.Corpus = "video" },
		"devices on cpu":           func(sc *BenchScenario) { sc.Placement, sc.Devices = "cpu", 2 },
		"devices on smartnic":      func(sc *BenchScenario) { sc.Placement, sc.Devices = "smartnic", 2 },
		"devices on qat":           func(sc *BenchScenario) { sc.Placement, sc.Devices = "qat", 4 },
		"devices on adaptive":      func(sc *BenchScenario) { sc.Placement, sc.Devices = "adaptive", 2 },
		"peer on cpu":              func(sc *BenchScenario) { sc.Placement, sc.DataPath = "cpu", "peer" },
		"peer on adaptive":         func(sc *BenchScenario) { sc.Placement, sc.DataPath = "adaptive", "peer" },
		"peer with shards":         func(sc *BenchScenario) { sc.Placement, sc.DataPath, sc.Shards = "rr", "peer", 2 },
		"shards on cpu":            func(sc *BenchScenario) { sc.Placement, sc.Shards = "cpu", 2 },
		"shards without ulp":       func(sc *BenchScenario) { sc.ULP, sc.Shards = "none", 2 },
		"unknown ulp with shards":  func(sc *BenchScenario) { sc.ULP, sc.Shards = "quic", 2 },
		"workload on cpu":          func(sc *BenchScenario) { sc.Placement, sc.Workload = "cpu", "kv" },
		"workload with shards":     func(sc *BenchScenario) { sc.Workload, sc.Shards = "kv", 2 },
		"workload with peer":       func(sc *BenchScenario) { sc.Workload, sc.DataPath = "kv", "peer" },
		"workload with trace":      func(sc *BenchScenario) { sc.Workload, sc.Trace = "kv", true },
		"unknown placement traced": func(sc *BenchScenario) { sc.Placement, sc.Trace = "", true },
	} {
		sc := tinyScenario(name)
		mutate(&sc)
		if err := build(sc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The serial builder takes no shard, workload or cluster scenario.
	for _, sc := range []BenchScenario{{Shards: 2}, {Workload: "kv"}, {Nodes: 3}} {
		if _, err := Build(sc); err == nil {
			t.Errorf("Build accepted %+v", sc)
		}
	}
}

// smartdimm over several ranks is the rr fleet; plain HTTP serves
// without a ULP backend but keeps the fleet; peer wraps the backend.
func TestBuilderResolvesPlacement(t *testing.T) {
	sc := tinyScenario("fleet")
	sc.Devices = 2
	rig, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rig.Fleet == nil || rig.Fleet.Policy() != fleet.RoundRobin || rig.Backend != offload.Backend(rig.Fleet) {
		t.Fatalf("smartdimm over 2 ranks: fleet %v, backend %T", rig.Fleet, rig.Backend)
	}
	sc.ULP = "none"
	if rig, err = Build(sc); err != nil || rig.Fleet == nil || rig.Backend != nil {
		t.Fatalf("ulp none: err %v, backend %T", err, rig.Backend)
	}
	sc.ULP, sc.DataPath = "tls", "peer"
	if rig, err = Build(sc); err != nil || rig.NIC == nil {
		t.Fatalf("peer: err %v", err)
	}
	if _, ok := rig.Backend.(*offload.RDMA); !ok {
		t.Fatalf("peer backend is %T, want the RDMA wrapper", rig.Backend)
	}
	sh := tinyScenario("sharded")
	sh.Shards = 2
	cfg, err := sh.ShardedConfig()
	if err != nil || cfg.Policy != fleet.RoundRobin || cfg.LLCBytes != 2<<20 || cfg.LLCWays != 8 {
		t.Fatalf("sharded smartdimm: %+v, %v", cfg, err)
	}
}
