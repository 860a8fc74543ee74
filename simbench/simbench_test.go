package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"repro/internal/aesgcm"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/profile"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/wrkgen"
)

// runOnce builds and runs a workload one time at the given seed.
func runOnce(t *testing.T, name string, o options) outcome {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := w.rig(o)
	if err != nil {
		t.Fatal(err)
	}
	rg.warmup()
	rg.measure()
	out, err := rg.result()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustPins(t *testing.T) map[string]pin {
	t.Helper()
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	return pins
}

// TestOutputCheckBites: the default seed reproduces its pin, and a run
// with a perturbed calibration counts as failed.
func TestOutputCheckBites(t *testing.T) {
	pins := mustPins(t)
	for _, tc := range []struct {
		name    string
		perturb func(*sim.Params)
	}{
		{"tls4k-cpu", func(p *sim.Params) { p.AESNICyclesPerByte *= 1.25 }},
		{"kv-zipf-open", func(p *sim.Params) { p.HTTPParseNs += 100 }},
	} {
		w, err := findWorkload(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{w: w, seed: defaultSeed, params: sim.DefaultParams(), ref: pins[tc.name]}
		if _, ok := b.once(nil); !ok || b.failed != 0 {
			t.Fatalf("%s: default calibration failed its pin: %v", tc.name, b.errs)
		}
		tc.perturb(&b.params)
		if _, ok := b.once(nil); !ok {
			t.Fatalf("%s: perturbed run did not complete: %v", tc.name, b.errs)
		}
		if b.failed != 1 || b.result().Correct {
			t.Fatalf("%s: perturbed calibration passed the output check", tc.name)
		}
	}
}

// TestOutputCheckSeedRepeats: at a seed with no pin, the first run is
// the reference and a repeat must match it.
func TestOutputCheckSeedRepeats(t *testing.T) {
	w, _ := findWorkload("tls4k-cpu")
	b := &bench{w: w, seed: 7, params: sim.DefaultParams()}
	b.once(nil)
	b.once(nil)
	if b.failed != 0 || b.ref.Vector == nil {
		t.Fatalf("seed 7 did not repeat: %v", b.errs)
	}
	if reflect.DeepEqual(b.ref, mustPins(t)["tls4k-cpu"]) {
		t.Fatal("seed 7 simulated the same outputs as the default seed")
	}
}

// TestCanaryChecksPinAtAnySeed: a benchmark run at a seed with no pin
// still fails on a perturbed calibration, through its default-seed
// canary.
func TestCanaryChecksPinAtAnySeed(t *testing.T) {
	w, _ := findWorkload("tls4k-cpu")
	params := sim.DefaultParams()
	params.AESNICyclesPerByte *= 1.25
	b := &bench{w: w, seed: 7, params: params, pin: mustPins(t)["tls4k-cpu"]}
	b.canary()
	if b.failed != 1 || b.seed != 7 || b.ref.Vector != nil {
		t.Fatalf("canary: failed %d, seed %d, ref kept %v", b.failed, b.seed, b.ref.Vector != nil)
	}
}

// TestTimedBackendTransparent: timing every Process call leaves every
// simulated KPI and counter byte-identical.
func TestTimedBackendTransparent(t *testing.T) {
	for _, name := range []string{"tls4k-smartdimm", "tls4k-cpu", "kv-zipf-open"} {
		o := options{seed: defaultSeed, params: sim.DefaultParams()}
		plain := runOnce(t, name, o)
		tm := &procTimer{spans: newSpanLog(time.Now())}
		o.timer = tm
		timed := runOnce(t, name, o)
		if !reflect.DeepEqual(plain, timed) {
			t.Fatalf("%s: timed run differs:\nplain %v\ntimed %v", name, plain, timed)
		}
		if len(tm.durs) == 0 || tm.spans.tr.Len() == 0 {
			t.Fatalf("%s: no Process call was timed", name)
		}
	}
}

// TestTimedBackendForwardsIngestor: the wrapper keeps the peer-DMA
// ingress contract exactly when the inner backend has it.
func TestTimedBackendForwardsIngestor(t *testing.T) {
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), Geometry: benchGeometry,
		WithSmartDIMM: true, DataPath: sim.DataPathPeer,
	})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := rdma.New(rdma.Config{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := offload.NewRDMA(&offload.SmartDIMM{Sys: sys}, nic)
	if err != nil {
		t.Fatal(err)
	}
	tm := &procTimer{}
	if _, ok := tm.wrap(peer).(offload.Ingestor); !ok {
		t.Fatal("wrapped RDMA backend lost offload.Ingestor")
	}
	if _, ok := tm.wrap(&offload.CPU{Sys: sys}).(offload.Ingestor); ok {
		t.Fatal("wrapped CPU backend gained offload.Ingestor")
	}
}

// TestKVMatchesWorkloadRun: the benchmark's kv assembly renders the same
// canonical report as workload.Run over the same configuration.
func TestKVMatchesWorkloadRun(t *testing.T) {
	out := runOnce(t, "kv-zipf-open", options{seed: defaultSeed, params: sim.DefaultParams()})
	w, _ := findWorkload("kv-zipf-open")
	rep, err := workload.Run(workload.RunConfig{
		Kind: "kv", Ranks: 4, Policy: fleet.RoundRobin, Conns: 64, Workers: 16, Seed: defaultSeed,
		HorizonPs: w.win.warmupPs + w.win.measurePs, WarmupPs: w.win.warmupPs, DrainPs: kvDrainPs,
		KV:       workload.KVConfig{ZipfS: 0.99},
		Arrivals: wrkgen.ArrivalConfig{Streams: 4, BaseRPS: 1.8e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(rep.Canonical()))
	if got, want := out.digest, hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("kv report digest %s, workload.Run gives %s", got, want)
	}
}

// TestSerialMatchesKPIBench: the TLS assemblies simulate what the KPI
// bench's scenarios of the same shape and window simulate.
func TestSerialMatchesKPIBench(t *testing.T) {
	for _, tc := range []struct{ name, placement string }{
		{"tls4k-smartdimm", "smartdimm"},
		{"tls4k-cpu", "cpu"},
	} {
		out := runOnce(t, tc.name, options{seed: defaultSeed, params: sim.DefaultParams()})
		w, _ := findWorkload(tc.name)
		res, err := profile.RunBenchScenario(profile.BenchScenario{
			Name: tc.name, Placement: tc.placement, Devices: 1, ULP: "tls",
			Msg: 4096, Conns: 64, Workers: 10, Seed: defaultSeed,
			WarmupPs: w.win.warmupPs, MeasurePs: w.win.measurePs,
		})
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range res.KPIs {
			if got := out.vector["kpi."+k]; got != want {
				t.Errorf("%s: kpi.%s = %v, KPI bench gives %v", tc.name, k, got, want)
			}
		}
	}
}

// TestShardedMatchesRun: splitting fleet.Sharded.Run at the measurement
// boundary and aggregating the shards here gives Run's own aggregate.
func TestShardedMatchesRun(t *testing.T) {
	win := window{200 * sim.Us, 200 * sim.Us}
	o := options{seed: defaultSeed, params: sim.DefaultParams()}
	r, err := buildSharded(o, win)
	if err != nil {
		t.Fatal(err)
	}
	r.warmup()
	r.measure()
	out, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildSharded(o, win)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := ref.cl.Run(win.warmupPs, win.measurePs)
	if err != nil {
		t.Fatal(err)
	}
	want := serverKPIs(sm.Agg, sm.Agg.Latency.Percentile(99), o.params)
	for k, w := range want {
		if out.vector[k] != w {
			t.Errorf("%s = %v, fleet.Sharded.Run gives %v", k, out.vector[k], w)
		}
	}
	if out.vector["sim.epochs"] == 0 || out.vector["sim.cross_shard_msgs"] == 0 {
		t.Errorf("sharded run recorded no epochs or cross-shard sends: %v", out.vector)
	}
}

// TestSpansReadByTracestat: the span log's Perfetto JSON loads with the
// reader tracestat uses, and the profile tree nests offload.process under
// the engine span, so the engine span's self time excludes it.
func TestSpansReadByTracestat(t *testing.T) {
	origin := time.Now()
	l := newSpanLog(origin)
	l.span("setup", origin, 2*time.Millisecond)
	l.span("engine.measure", origin.Add(2*time.Millisecond), 10*time.Millisecond)
	l.process(7, origin.Add(3*time.Millisecond), 4*time.Millisecond)
	tracks, events, err := profile.ReadPerfetto(bytes.NewReader(l.tr.PerfettoJSON()))
	if err != nil {
		t.Fatal(err)
	}
	p := profile.FromEvents(tracks, events)
	var bench *profile.Node
	for _, n := range p.Root.Children {
		if n.Name == "bench" {
			bench = n
		}
	}
	if bench == nil || len(bench.Children) != 2 {
		t.Fatalf("bench track: %+v", bench)
	}
	eng := bench.Children[0] // sorted by total, longest first
	if eng.Name != "engine.measure" || len(eng.Children) != 1 || eng.Children[0].Name != "offload.process" {
		t.Fatalf("engine span: %+v", eng)
	}
	if eng.TotalPs != 10_000_000_000 || eng.SelfPs != 6_000_000_000 {
		t.Fatalf("engine.measure total %d self %d ps, want 10 ms and 6 ms", eng.TotalPs, eng.SelfPs)
	}
}

// TestHostFracs: a real CPU profile of aesgcm work folds into module
// shares that sum to 1 and attributes that work to host_frac.aesgcm.
func TestHostFracs(t *testing.T) {
	g, err := aesgcm.NewGCM(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 4096)
	var p cpuProfile
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := g.Seal(nil, make([]byte, 12), msg, nil); err != nil {
			t.Fatal(err)
		}
	}
	self := map[string]int64{}
	if err := p.stop(self); err != nil {
		t.Fatal(err)
	}
	fracs, err := hostFracs(self)
	if err != nil {
		t.Fatal(err)
	}
	if len(fracs) != len(modules) {
		t.Fatalf("%d shares for %d modules", len(fracs), len(modules))
	}
	// Under -race most leaf samples land in the race runtime ("other"),
	// so require only that aesgcm leads the simulator modules.
	for _, m := range modules[:len(modules)-2] {
		if m != "aesgcm" && fracs[m] >= fracs["aesgcm"] {
			t.Fatalf("host_frac.%s = %v >= host_frac.aesgcm while profiling AES-GCM: %v", m, fracs[m], fracs)
		}
	}
	if _, err := hostFracs(map[string]int64{}); err == nil {
		t.Fatal("an empty profile gave shares")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/aesgcm.FieldEl.Mul":                      "aesgcm",
		"repro/internal/cuckoo.(*Table[go.shape.*uint8]).Insert": "cuckoo",
		"repro/internal/sim.(*Engine).RunUntil":                  "sim",
		"repro/internal/stats.(*Histogram).Add":                  "other",
		"runtime.mallocgc":                                       "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":           "runtime",
		"sort.Slice": "other",
		"main.main":  "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
