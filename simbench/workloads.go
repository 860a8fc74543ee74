package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/wrkgen"
)

// options parameterise one build of a workload's system.
type options struct {
	seed   int64
	params sim.Params
	// timer, when non-nil, wraps the offload backend so every Process
	// call is timed on the host clock.
	timer *procTimer
}

// rig is one assembled system. warmup runs the engine to the end of the
// warm-up window and opens the measured window; measure runs that
// window; result collects the simulated outputs.
type rig interface {
	warmup()
	measure()
	result() (outcome, error)
}

// outcome is what one run simulated. Every value is deterministic for a
// given seed and calibration.
type outcome struct {
	// requests is the number of simulated requests retired in the
	// measured window.
	requests uint64
	// vector holds the simulated KPIs ("kpi.*") and the work counters
	// over the measured window ("sim.*", "core.*", ...).
	vector map[string]float64
	// digest is the sha256 of workload.Report.Canonical() (kv-zipf-open
	// only).
	digest string
}

// scenario is one pinned benchmark workload: a system shape, the
// simulated windows each run of it covers, and the host threads it runs
// on (GOMAXPROCS). A serial engine gets one: the Go GC then shares the
// simulation's core instead of racing it from the other one, which ran
// the CPU-bound tls4k-cpu ~15% slower and doubled its run-to-run spread
// whenever the host was busy.
type scenario struct {
	name  string
	win   window
	procs int
	build func(o options, win window) (rig, error)
}

// rig builds the scenario's system for one run.
func (s scenario) rig(o options) (rig, error) { return s.build(o, s.win) }

// defaultSeed is the seed of the KPI bench's scenarios, the one
// pins.json records.
const defaultSeed = 1

// window is a run's simulated warm-up and measured spans.
type window struct{ warmupPs, measurePs int64 }

// workloads lists the benchmark's scenarios. The shapes are the KPI
// bench's (internal/profile/bench.go); the simulated windows are shorter
// so that one benchmark run holds many repetitions.
var workloads = []scenario{
	{"tls4k-smartdimm", window{500 * sim.Us, sim.Ms}, 1, func(o options, win window) (rig, error) {
		return buildSerial(o, "smartdimm", win)
	}},
	{"kv-zipf-open", window{sim.Ms, 2500 * sim.Us}, 1, func(o options, win window) (rig, error) {
		return buildKV(o, win)
	}},
	{"tls4k-cpu", window{sim.Ms, 12 * sim.Ms}, 1, func(o options, win window) (rig, error) {
		return buildSerial(o, "cpu", win)
	}},
	{"tls4k-8shard", window{500 * sim.Us, 800 * sim.Us}, shardExecWorkers, func(o options, win window) (rig, error) {
		return buildSharded(o, win)
	}},
}

func findWorkload(name string) (scenario, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return scenario{}, fmt.Errorf("unknown workload %q", name)
}

// benchGeometry is the small DIMM geometry every KPI-bench system uses.
var benchGeometry = dram.Geometry{Ranks: 1, BankGroups: 4, BanksPerBG: 4, Rows: 4096, ColsPerRow: 128}

// serialRig is one closed-loop TLS server on a serial engine.
type serialRig struct {
	sys  *sim.System
	srv  *server.Server
	gen  *wrkgen.Generator
	win  window
	base counters
}

// buildSerial assembles the 4 KB TLS server over one SmartDIMM rank
// ("smartdimm") or with no functional offload ("cpu"): 64 closed-loop
// connections, 10 workers.
func buildSerial(o options, placement string, win window) (*serialRig, error) {
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: o.params, LLCBytes: 2 << 20, LLCWays: 8,
		Geometry: benchGeometry, WithSmartDIMM: placement == "smartdimm",
	})
	if err != nil {
		return nil, err
	}
	var backend offload.Backend = &offload.CPU{Sys: sys}
	if placement == "smartdimm" {
		backend = &offload.SmartDIMM{Sys: sys}
	}
	if o.timer != nil {
		backend = o.timer.wrap(backend)
	}
	srv, err := server.New(sys.Engine, server.Config{
		Sys: sys, Backend: backend, Mode: server.HTTPSMode, Workers: 10,
		MsgSize: 4096, Connections: 64, FileKind: corpus.Text, Seed: o.seed,
	})
	if err != nil {
		return nil, err
	}
	gen := wrkgen.New(sys.Engine, srv, wrkgen.Config{
		Connections: 64,
		ThinkPs:     int64(sys.Params.RTTUs * float64(sim.Us)),
	})
	return &serialRig{sys: sys, srv: srv, gen: gen, win: win}, nil
}

func (r *serialRig) warmup() {
	r.gen.Start()
	r.sys.Engine.RunUntil(r.win.warmupPs)
	r.srv.BeginMeasurement()
	r.gen.BeginMeasurement()
	r.base = readCounters([]*sim.System{r.sys})
}

func (r *serialRig) measure() { r.sys.Engine.RunUntil(r.win.warmupPs + r.win.measurePs) }

func (r *serialRig) result() (outcome, error) {
	if err := r.srv.LastError(); err != nil {
		return outcome{}, err
	}
	m := r.srv.Collect()
	c := readCounters([]*sim.System{r.sys}).since(r.base)
	v := serverKPIs(m, m.Latency.Percentile(99), r.sys.Params)
	c.addTo(v)
	return outcome{requests: m.Requests, vector: v}, nil
}

// kvRig is the KV-cache workload of internal/workload under open-loop
// Zipf arrivals, assembled from the same public constructors
// workload.Run uses with the autoscaler, alerting and recorder off (its
// Canonical report is byte-identical to workload.Run's; see the tests).
type kvRig struct {
	sys  *sim.System
	fl   *fleet.Fleet
	kv   *workload.KV
	srv  *server.Server
	gen  *wrkgen.OpenLoop
	win  window
	base counters
}

// buildKV assembles kv-4rank's shape: 4 ranks round-robin, 64
// connections, 16 workers, Zipf(0.99) keys, 1.8 M arrivals/s.
func buildKV(o options, win window) (*kvRig, error) {
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: o.params, LLCBytes: 2 << 20, LLCWays: 8,
		Geometry: benchGeometry, WithSmartDIMM: true, SmartDIMMRanks: 4,
	})
	if err != nil {
		return nil, err
	}
	fl, err := fleet.New(fleet.Config{Sys: sys, Policy: fleet.RoundRobin})
	if err != nil {
		return nil, err
	}
	// The key population is fixed: under Zipf(0.99) the ten hottest keys
	// take a third of the requests, so re-drawing their value sizes per
	// seed moved per-request work by ±15% between seeds. The seed varies
	// the arrival trace and the payload bytes instead.
	kv, err := workload.NewKV(workload.KVConfig{ZipfS: 0.99, Seed: defaultSeed})
	if err != nil {
		return nil, err
	}
	var backend offload.Backend = fl
	if o.timer != nil {
		backend = o.timer.wrap(backend)
	}
	srv, err := server.New(sys.Engine, server.Config{
		Sys: sys, Backend: backend, Mode: server.HTTPSMode, Workers: 16,
		MsgSize: kv.MaxPayload(), Connections: 64, FileKind: corpus.Text, Seed: o.seed,
		Source: kv, LatWindow: stats.NewWindow(4),
	})
	if err != nil {
		return nil, err
	}
	trace, err := wrkgen.GenArrivals(wrkgen.ArrivalConfig{
		Streams: 4, Connections: 64, BaseRPS: 1.8e6, HorizonPs: win.warmupPs + win.measurePs, Seed: o.seed,
	})
	if err != nil {
		return nil, err
	}
	gen := wrkgen.NewOpenLoop(sys.Engine, srv, trace, nil)
	return &kvRig{sys: sys, fl: fl, kv: kv, srv: srv, gen: gen, win: win}, nil
}

// kvDrainPs is the post-horizon settle window (the KPI bench's).
const kvDrainPs = sim.Ms

func (r *kvRig) warmup() {
	r.gen.Start()
	r.sys.Engine.RunUntil(r.win.warmupPs)
	r.srv.BeginMeasurement()
	r.gen.BeginMeasurement()
	r.base = readCounters([]*sim.System{r.sys})
}

// measure runs to the trace horizon and then drains, as workload.Run
// does: the arrivals of the measured window all complete in it.
func (r *kvRig) measure() { r.sys.Engine.RunUntil(r.win.warmupPs + r.win.measurePs + kvDrainPs) }

// report renders the run as workload.Run would.
func (r *kvRig) report() workload.Report {
	return workload.Report{
		Kind: "kv", Metrics: r.srv.Collect(),
		Issued: r.gen.Issued, Completed: r.gen.Completed, PeakInFlight: r.gen.PeakIn,
		P50Ps: r.gen.Latency.Percentile(50), P99Ps: r.gen.Latency.Percentile(99),
		Fleet:       r.fl.Totals(),
		FinalActive: r.fl.ActiveMembers(),
		PagesOK:     r.fl.OutstandingPages() == r.fl.ExpectedPages(),
		Gets:        r.kv.Gets, Sets: r.kv.Sets,
	}
}

func (r *kvRig) result() (outcome, error) {
	if err := r.srv.LastError(); err != nil {
		return outcome{}, err
	}
	rep := r.report()
	if !rep.PagesOK {
		return outcome{}, fmt.Errorf("fleet page accounting: %d outstanding, %d expected",
			r.fl.OutstandingPages(), r.fl.ExpectedPages())
	}
	c := readCounters([]*sim.System{r.sys}).since(r.base)
	v := serverKPIs(rep.Metrics, rep.P99Ps, r.sys.Params)
	v["kpi.issued"] = float64(rep.Issued)
	c.addTo(v)
	sum := sha256.Sum256([]byte(rep.Canonical()))
	return outcome{requests: rep.Metrics.Requests, vector: v, digest: hex.EncodeToString(sum[:])}, nil
}

// shardedRig is the 8-shard fleet on the parallel PDES engine: one
// SmartDIMM rank per shard, 512 closed-loop connections.
type shardedRig struct {
	cl   *fleet.Sharded
	win  window
	base counters
}

// shardExecWorkers is the epoch parallelism of tls4k-8shard, and its
// GOMAXPROCS: both cores the benchmark may use.
const shardExecWorkers = 2

func buildSharded(o options, win window) (*shardedRig, error) {
	p := o.params
	cl, err := fleet.NewSharded(fleet.ShardedConfig{
		Shards: 8, RanksPerShard: 1, Policy: fleet.RoundRobin,
		Workers: 10, MsgSize: 4096, Connections: 512,
		FileKind: corpus.Text, Mode: server.HTTPSMode, Seed: o.seed,
		ExecWorkers: shardExecWorkers, Params: &p,
	})
	if err != nil {
		return nil, err
	}
	return &shardedRig{cl: cl, win: win}, nil
}

// warmup and measure follow fleet.Sharded.Run's protocol, split at the
// measurement boundary.
func (r *shardedRig) warmup() {
	r.cl.Generator().Start()
	r.cl.Engine().RunUntil(r.win.warmupPs)
	for _, srv := range r.cl.Servers() {
		srv.BeginMeasurement()
	}
	r.cl.Generator().BeginMeasurement()
	r.base = r.counters()
}

func (r *shardedRig) measure() { r.cl.Engine().RunUntil(r.win.warmupPs + r.win.measurePs) }

func (r *shardedRig) counters() counters {
	c := readCounters(r.cl.Systems())
	eng := r.cl.Engine()
	c["sim.events"] = eng.Processed()
	c["sim.epochs"] = eng.Epochs()
	c["sim.cross_shard_msgs"] = eng.Sent()
	return c
}

func (r *shardedRig) result() (outcome, error) {
	var agg server.Metrics
	agg.Latency.SetBounded()
	var latSum int64
	for s, srv := range r.cl.Servers() {
		if err := srv.LastError(); err != nil {
			return outcome{}, fmt.Errorf("shard %d: %w", s, err)
		}
		m := srv.Collect()
		agg.Requests += m.Requests
		agg.CPUBusyPs += m.CPUBusyPs
		agg.MemBytes += m.MemBytes
		agg.TXBytes += m.TXBytes
		agg.Errors += m.Errors
		agg.ElapsedPs = max(agg.ElapsedPs, m.ElapsedPs)
		latSum += m.MeanLatPs * int64(m.Requests)
		agg.Latency.Merge(&m.Latency)
	}
	if agg.ElapsedPs > 0 {
		agg.RPS = float64(agg.Requests) / (float64(agg.ElapsedPs) * 1e-12)
		agg.MemBWGBps = float64(agg.MemBytes) / (float64(agg.ElapsedPs) * 1e-12) / 1e9
	}
	if agg.Requests > 0 {
		agg.MeanLatPs = latSum / int64(agg.Requests)
	}
	v := serverKPIs(agg, agg.Latency.Percentile(99), r.cl.Systems()[0].Params)
	r.counters().since(r.base).addTo(v)
	return outcome{requests: agg.Requests, vector: v}, nil
}

// serverKPIs extracts the simulated KPI vector the KPI bench pins.
func serverKPIs(m server.Metrics, p99 float64, p sim.Params) map[string]float64 {
	cyclesPerByte := 0.0
	if m.TXBytes > 0 {
		// ps → cycles: cycles = ps * GHz / 1000.
		cyclesPerByte = float64(m.CPUBusyPs) * p.CPUClockGHz / 1000 / float64(m.TXBytes)
	}
	return map[string]float64{
		"kpi.requests":        float64(m.Requests),
		"kpi.rps":             m.RPS,
		"kpi.mean_lat_ps":     float64(m.MeanLatPs),
		"kpi.p99_lat_ps":      p99,
		"kpi.cycles_per_byte": cyclesPerByte,
		"kpi.mem_bw_gbps":     m.MemBWGBps,
		"kpi.server_errors":   float64(m.Errors),
	}
}
