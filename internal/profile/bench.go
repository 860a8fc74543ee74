// The KPI regression harness behind `./ci.sh bench`. It runs a small
// set of pinned, fully deterministic serving scenarios — same seed,
// same calibration, chaos off — extracts the KPIs the paper's
// evaluation argues about (throughput, tail latency, host cycles per
// transmitted byte, memory bandwidth), and compares them against the
// committed baseline in BENCH_baseline.json. Because the simulator is
// deterministic, an unchanged tree reproduces the baseline to the last
// bit; the tolerance exists so intentional calibration tweaks within a
// band don't trip the gate, while a real regression (a slowed hot path,
// a scheduling bug, an accounting error) does.
package profile

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/rdma"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/wrkgen"
)

// BenchScenario pins one deterministic serving run. It is also the spec
// every serving run is built from: the KPI bench, smartdimm-sim and the
// traced figures all describe their runs with it (see Build).
type BenchScenario struct {
	Name string `json:"name"`
	// Placement is cpu | smartnic | qat | smartdimm | adaptive or a fleet
	// policy (rr | leastload | affinity | sticky). smartdimm over more
	// than one rank, a shard or a workload means the rr fleet.
	Placement string `json:"placement"`
	Devices   int    `json:"devices"` // SmartDIMM ranks (fleet when > 1)
	ULP       string `json:"ulp"`     // tls (also "") | compression | none
	Msg       int    `json:"msg"`
	Conns     int    `json:"conns"`
	Workers   int    `json:"workers"`
	Seed      int64  `json:"seed"`
	WarmupPs  int64  `json:"warmup_ps"`
	MeasurePs int64  `json:"measure_ps"`
	// Shards > 0 runs the scenario on the sharded PDES cluster
	// (fleet.Sharded): Shards sub-systems with Devices ranks each,
	// Placement naming the per-shard fleet policy. ExecWorkers sets the
	// epoch parallelism (0 = GOMAXPROCS, 1 = serial reference); the sim
	// KPIs are byte-identical either way, only wall KPIs move.
	Shards      int         `json:"shards,omitempty"`
	ExecWorkers int         `json:"exec_workers,omitempty"`
	Params      *sim.Params `json:"-"` // calibration override; nil = DefaultParams
	// Nodes > 0 runs the scenario on the replicated cluster tier
	// (internal/cluster): Nodes server nodes behind quorum-ack
	// replication with Conns closed-loop client connections, chaos off.
	// The KPI set is the client-visible one (acked ops, redirects,
	// promotions) rather than the per-server serving KPIs.
	Nodes int `json:"nodes,omitempty"`
	// DataPath selects how records reach the device buffers: "" or
	// "host" is the host-mediated path (storage DMA bouncing through
	// host DRAM on page-cache misses); "peer" is the zero-copy RDMA
	// path (the NIC writes straight into the registered lower-half
	// buffers). "peer" requires an inline placement (smartdimm or a
	// fleet policy).
	DataPath string `json:"datapath,omitempty"`
	// Workload, when set ("kv" or "embed"), runs the scenario through
	// the trace-replay workload suite (internal/workload) instead of the
	// closed-loop generator: an open-loop arrival trace at RPS drives
	// the named request mix over a Devices-rank fleet, chaos and
	// autoscaler off. Placement names the fleet policy; Msg is ignored
	// (the source's own payload mix governs).
	Workload string  `json:"workload,omitempty"`
	RPS      float64 `json:"rps,omitempty"` // open-loop offered rate (Workload only)
	// LLCBytes and LLCWays size the LLC (per shard when sharded); zero
	// selects 2 MiB and 8 ways.
	LLCBytes int `json:"llc_bytes,omitempty"`
	LLCWays  int `json:"llc_ways,omitempty"`
	// Corpus names the served file corpus (zeros | html | text | json |
	// random); "" is text.
	Corpus string `json:"corpus,omitempty"`
	// Trace records the run: a span tracer through every layer plus the
	// channel-0 CAS stream (serial), or a tracer per shard (sharded).
	Trace bool `json:"trace,omitempty"`
}

// Clock reads a wall-time instant in nanoseconds. The bench harness
// takes it as an injected dependency (internal/ is wall-clock-free by
// the determinism gate in ci.sh); cmd/tracestat passes time.Now.
type Clock func() int64

// BenchResult carries one scenario's extracted KPIs. The map marshals
// with sorted keys, so the JSON report is byte-deterministic.
type BenchResult struct {
	Name string             `json:"name"`
	KPIs map[string]float64 `json:"kpis"`
}

// BenchReport is the whole harness output (BENCH_results.json /
// BENCH_baseline.json).
type BenchReport struct {
	Scenarios []BenchResult `json:"scenarios"`
}

// DefaultBenchScenarios are the pinned regression scenarios: the
// single-device SmartDIMM placement, the 4-rank sharded fleet, and the
// all-CPU baseline the paper compares against. Windows are short — the
// gate needs stable KPIs, not converged steady state, and determinism
// makes short windows exactly reproducible.
func DefaultBenchScenarios() []BenchScenario {
	return []BenchScenario{
		{Name: "smartdimm-1dev", Placement: "smartdimm", Devices: 1, ULP: "tls",
			Msg: 4096, Conns: 64, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
		{Name: "fleet-4rank", Placement: "rr", Devices: 4, ULP: "tls",
			Msg: 4096, Conns: 128, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
		{Name: "cpu-baseline", Placement: "cpu", Devices: 1, ULP: "tls",
			Msg: 4096, Conns: 64, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
		// The sharded PDES scenario: ~100k requests over an 8-shard rack
		// slice, sized so single-run parallelism shows up in the wall
		// columns (sim KPIs stay byte-identical at any ExecWorkers).
		{Name: "fleet-8rank-big", Placement: "rr", Shards: 8, Devices: 1, ULP: "tls",
			Msg: 4096, Conns: 512, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 20 * sim.Ms},
		// The replicated cluster tier, healthy (chaos off): pins the
		// replication path's client-visible KPIs — quorum-ack write and
		// leased-read goodput, mean ack latency, and the redirect/timeout
		// counters that caught the router cursor ping-pong regression.
		{Name: "cluster-3node", Placement: "cluster", Nodes: 3, ULP: "tls",
			Msg: 1024, Conns: 6, Workers: 2, Seed: 1, WarmupPs: 2 * sim.Ms, MeasurePs: 8 * sim.Ms},
		// The zero-copy peer-DMA data path: fleet-4rank's twin with the
		// NIC depositing records straight into the registered rank
		// buffers. Pins the RDMA ingress KPIs (goodput with the bounce
		// stage gone, doorbell coalescing) against the host-mediated
		// twin above.
		{Name: "rdma-4rank", Placement: "rr", Devices: 4, ULP: "tls", DataPath: "peer",
			Msg: 4096, Conns: 128, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
		// The production workload suite (internal/workload), open-loop
		// at a fixed offered rate, autoscaler off: the KV-cache GET/SET
		// mix and the embedding-gather mix over a 4-rank fleet. These pin
		// the trace-replay path itself — arrival shaping, the workload
		// sources, and the gather stage — not just the serving stack.
		{Name: "kv-4rank", Placement: "rr", Devices: 4, Workload: "kv", RPS: 1.8e6,
			Conns: 64, Workers: 16, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
		{Name: "embed-4rank", Placement: "rr", Devices: 4, Workload: "embed", RPS: 5e5,
			Conns: 64, Workers: 16, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
	}
}

// RunBenchScenario builds a fresh system and runs one measurement,
// returning the scenario's KPIs.
func RunBenchScenario(sc BenchScenario) (BenchResult, error) {
	return runBenchScenario(sc, nil)
}

// RunBenchClocked runs every scenario in order with an optional wall
// clock. A non-nil clock adds the volatile wall KPIs — "wall_seconds"
// and "sim_req_per_wall_s" (simulated requests retired per wall-clock
// second, the single-run parallelism figure of merit). Wall KPIs never
// belong in BENCH_baseline.json; StripVolatile removes them.
func RunBenchClocked(scenarios []BenchScenario, clock Clock) (*BenchReport, error) {
	rep := &BenchReport{}
	for _, sc := range scenarios {
		r, err := runBenchScenario(sc, clock)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, r)
	}
	return rep, nil
}

func runBenchScenario(sc BenchScenario, clock Clock) (BenchResult, error) {
	var start int64
	if clock != nil {
		start = clock()
	}
	kpis, err := benchKPIs(sc)
	if err != nil {
		return BenchResult{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if clock != nil {
		wall := float64(clock()-start) * 1e-9
		kpis["wall_seconds"] = wall
		if wall > 0 {
			// Cluster scenarios retire client ops, the others requests.
			kpis["sim_req_per_wall_s"] = (kpis["requests"] + kpis["ops"]) / wall
		}
	}
	return BenchResult{Name: sc.Name, KPIs: kpis}, nil
}

// benchKPIs runs the scenario on the path its mode fields select and
// extracts its KPIs.
func benchKPIs(sc BenchScenario) (map[string]float64, error) {
	params := sc.params()
	switch {
	case sc.Nodes > 0:
		return clusterKPIs(sc, params)
	case sc.Workload != "":
		// The open-loop KPIs add the issued count, and p99 comes from
		// the replayer's end-to-end record. workload.Run calibrates from
		// DefaultParams; Params overrides don't apply here.
		rc, err := sc.WorkloadConfig()
		if err != nil {
			return nil, err
		}
		rc.DrainPs = sim.Ms
		rep, err := workload.Run(rc)
		if err != nil {
			return nil, err
		}
		kpis := servingKPIs(rep.Metrics, rep.P99Ps, params)
		kpis["issued"] = float64(rep.Issued)
		return kpis, nil
	case sc.Shards > 0:
		cfg, err := sc.ShardedConfig()
		if err != nil {
			return nil, err
		}
		cl, err := fleet.NewSharded(cfg)
		if err != nil {
			return nil, err
		}
		sm, err := cl.Run(sc.WarmupPs, sc.MeasurePs)
		if err != nil {
			return nil, err
		}
		return servingKPIs(sm.Agg, sm.Agg.Latency.Percentile(99), params), nil
	}
	rig, err := Build(sc)
	if err != nil {
		return nil, err
	}
	m, err := rig.Run(sc.WarmupPs, sc.MeasurePs)
	if err != nil {
		return nil, err
	}
	return servingKPIs(m, m.Latency.Percentile(99), params), nil
}

// servingKPIs extracts the serving KPIs of one measured window.
func servingKPIs(m server.Metrics, p99 float64, params sim.Params) map[string]float64 {
	cyclesPerByte := 0.0
	if m.TXBytes > 0 {
		// ps → cycles: cycles = ps * GHz / 1000.
		cyclesPerByte = float64(m.CPUBusyPs) * params.CPUClockGHz / 1000 / float64(m.TXBytes)
	}
	return map[string]float64{
		"requests":        float64(m.Requests),
		"rps":             m.RPS,
		"mean_lat_ps":     float64(m.MeanLatPs),
		"p99_lat_ps":      p99,
		"cycles_per_byte": cyclesPerByte,
		"mem_bw_gbps":     m.MemBWGBps,
	}
}

// clusterKPIs runs the scenario on the replicated cluster tier and
// extracts the client-visible KPIs.
func clusterKPIs(sc BenchScenario, params sim.Params) (map[string]float64, error) {
	mode, err := sc.Mode()
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(cluster.Config{
		Nodes: sc.Nodes, Conns: sc.Conns, MsgSize: sc.Msg, Workers: sc.Workers,
		FileKind: corpus.Text, Mode: mode, Seed: sc.Seed,
		ExecWorkers: sc.ExecWorkers, Params: &params,
	})
	if err != nil {
		return nil, err
	}
	m, err := c.Run(sc.WarmupPs, sc.MeasurePs)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"ops":          float64(m.Ops),
		"ops_per_sec":  m.OpsPerSec,
		"acked_writes": float64(m.AckedWrites),
		"acked_reads":  float64(m.AckedReads),
		"mean_lat_ps":  float64(m.MeanLatPs),
		"redirects":    float64(m.Redirects),
		"timeouts":     float64(m.Timeouts),
		"promotions":   float64(m.Promotions),
	}, nil
}

// modes maps each ULP name to its server mode.
var modes = map[string]server.Mode{"": server.HTTPSMode, "tls": server.HTTPSMode, "compression": server.CompressedHTTP, "none": server.PlainHTTP}

// Mode returns the server mode the scenario's ULP selects.
func (sc BenchScenario) Mode() (server.Mode, error) {
	if m, ok := modes[sc.ULP]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("unknown ulp %q (want tls, compression or none)", sc.ULP)
}

func (sc BenchScenario) params() sim.Params {
	if sc.Params != nil {
		return *sc.Params
	}
	return sim.DefaultParams()
}

// llc returns the LLC size and associativity with their defaults.
func (sc BenchScenario) llc() (bytes, ways int) {
	bytes, ways = sc.LLCBytes, sc.LLCWays
	if bytes == 0 {
		bytes = 2 << 20
	}
	if ways == 0 {
		ways = 8
	}
	return bytes, ways
}

// resolved is a checked scenario: what its names select.
type resolved struct {
	mode   server.Mode
	kind   corpus.Kind
	ranks  int          // the fleet's ranks; 0 when the placement is no fleet
	policy fleet.Policy // the fleet's placement policy
	peer   bool         // the zero-copy RDMA data path
}

// backends builds the backends of the placements that are not fleet
// policies.
var backends = map[string]func(sys *sim.System) offload.Backend{
	"cpu":       func(sys *sim.System) offload.Backend { return &offload.CPU{Sys: sys} },
	"smartnic":  func(sys *sim.System) offload.Backend { return &offload.SmartNIC{Sys: sys} },
	"qat":       func(sys *sim.System) offload.Backend { return &offload.QAT{Sys: sys} },
	"smartdimm": func(sys *sim.System) offload.Backend { return &offload.SmartDIMM{Sys: sys} },
	"adaptive": func(sys *sim.System) offload.Backend {
		return &offload.Adaptive{Sys: sys, CPUBackend: &offload.CPU{Sys: sys}, DIMM: &offload.SmartDIMM{Sys: sys}}
	},
}

// resolve checks the scenario's placement, data path, ULP and corpus for
// every builder, and the combinations the run modes exclude.
func (sc BenchScenario) resolve() (resolved, error) {
	var r resolved
	var err error
	if r.mode, err = sc.Mode(); err != nil {
		return r, err
	}
	if r.kind, err = parseCorpus(sc.Corpus); err != nil {
		return r, err
	}
	switch sc.DataPath {
	case "", "host":
	case "peer":
		r.peer = true
	default:
		return r, fmt.Errorf("unknown data path %q (want host or peer)", sc.DataPath)
	}
	multi := sc.Devices > 1 || sc.Shards > 0 || sc.Workload != ""
	pol, polErr := fleet.ParsePolicy(sc.Placement)
	switch {
	case polErr == nil:
		r.ranks, r.policy = max(1, sc.Devices), pol
	case backends[sc.Placement] == nil:
		return r, fmt.Errorf("unknown placement %q", sc.Placement)
	case sc.Placement == "smartdimm" && multi:
		r.ranks, r.policy = max(1, sc.Devices), fleet.RoundRobin
	case multi:
		return r, fmt.Errorf("placement %q is single-device; %d devices, shards and workloads need smartdimm or a fleet policy (rr, leastload, affinity, sticky)",
			sc.Placement, sc.Devices)
	}
	if r.peer && r.ranks == 0 && sc.Placement != "smartdimm" {
		return r, fmt.Errorf("peer data path: placement %q has no device buffers; use smartdimm or a fleet policy", sc.Placement)
	}
	if sc.Shards > 0 && (r.peer || r.mode == server.PlainHTTP) {
		return r, fmt.Errorf("sharded runs serve tls or compression on the host data path")
	}
	if sc.Workload != "" && (sc.Shards > 0 || r.peer || sc.Trace) {
		return r, fmt.Errorf("workload runs take no shards, peer data path or trace")
	}
	return r, nil
}

func parseCorpus(name string) (corpus.Kind, error) {
	if name == "" {
		return corpus.Text, nil
	}
	for _, k := range corpus.AllKinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown corpus %q", name)
}

// Rig is one assembled serial serving run. Callers print from its parts
// or extend the run through them before Run (a co-runner on Sys.Engine,
// say).
type Rig struct {
	Sys     *sim.System
	Fleet   *fleet.Fleet      // fleet placements only
	NIC     *rdma.NIC         // peer data path only
	Backend offload.Backend   // nil for ULP none
	Tracer  *telemetry.Tracer // Trace only

	srv *server.Server
	gen *wrkgen.Generator
}

// Build assembles a serial serving run of sc on the system engine: the
// system, the RDMA NIC on the peer data path, the placement's backend,
// the server and a closed-loop generator with RTT think time. Sharded
// and workload scenarios build from ShardedConfig and WorkloadConfig.
func Build(sc BenchScenario) (*Rig, error) {
	if sc.Shards > 0 || sc.Workload != "" || sc.Nodes > 0 {
		return nil, fmt.Errorf("Build assembles serial runs, not shards, workloads or nodes")
	}
	res, err := sc.resolve()
	if err != nil {
		return nil, err
	}
	r := &Rig{}
	traceCAS := 0
	if sc.Trace {
		r.Tracer = telemetry.New()
		traceCAS = 1 << 16
	}
	dp := sim.DataPathHost
	if res.peer {
		dp = sim.DataPathPeer
	}
	llcBytes, llcWays := sc.llc()
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sc.params(), LLCBytes: llcBytes, LLCWays: llcWays,
		Geometry:       dram.MediumGeometry(),
		WithSmartDIMM:  res.ranks > 0 || sc.Placement == "smartdimm" || sc.Placement == "adaptive",
		SmartDIMMRanks: res.ranks,
		DataPath:       dp,
		Tracer:         r.Tracer,
		TraceCAS:       traceCAS,
	})
	if err != nil {
		return nil, err
	}
	r.Sys = sys
	if res.peer {
		if r.NIC, err = rdma.New(rdma.Config{Sys: sys, Tracer: r.Tracer}); err != nil {
			return nil, err
		}
	}
	if res.ranks > 0 {
		if r.Fleet, err = fleet.New(fleet.Config{Sys: sys, Policy: res.policy, RNIC: r.NIC}); err != nil {
			return nil, err
		}
		r.Backend = r.Fleet
	} else {
		r.Backend = backends[sc.Placement](sys)
	}
	switch {
	case res.mode == server.PlainHTTP:
		r.Backend = nil
	case res.peer:
		if r.Backend, err = offload.NewRDMA(r.Backend, r.NIC); err != nil {
			return nil, err
		}
	}
	if r.srv, err = server.New(sys.Engine, server.Config{
		Sys: sys, Backend: r.Backend, Mode: res.mode, Workers: sc.Workers,
		MsgSize: sc.Msg, Connections: sc.Conns, FileKind: res.kind, Seed: sc.Seed,
	}); err != nil {
		return nil, err
	}
	r.gen = wrkgen.New(sys.Engine, r.srv, wrkgen.Config{
		Connections: sc.Conns,
		ThinkPs:     int64(sys.Params.RTTUs * float64(sim.Us)),
	})
	return r, nil
}

// Run warms up for warmupPs, measures for measurePs and returns the
// server's metrics over the measured window. A traced rig's CAS stream
// lands in Tracer as a counter track.
func (r *Rig) Run(warmupPs, measurePs int64) (server.Metrics, error) {
	eng := r.Sys.Engine
	r.gen.Start()
	eng.RunUntil(warmupPs)
	r.srv.BeginMeasurement()
	r.gen.BeginMeasurement()
	eng.RunUntil(warmupPs + measurePs)
	m := r.srv.Collect()
	if err := r.srv.LastError(); err != nil {
		return server.Metrics{}, err
	}
	if r.Sys.Trace != nil {
		r.Sys.Trace.ExportTo(r.Tracer)
	}
	return m, nil
}

// ShardedConfig returns the sharded cluster a Shards > 0 scenario runs
// on: Shards sub-systems of Devices ranks behind the placement's policy.
func (sc BenchScenario) ShardedConfig() (fleet.ShardedConfig, error) {
	res, err := sc.resolve()
	if err != nil {
		return fleet.ShardedConfig{}, err
	}
	params := sc.params()
	llcBytes, llcWays := sc.llc()
	return fleet.ShardedConfig{
		Shards: sc.Shards, RanksPerShard: sc.Devices, Policy: res.policy,
		Workers: sc.Workers, MsgSize: sc.Msg, Connections: sc.Conns,
		FileKind: res.kind, Mode: res.mode, Seed: sc.Seed,
		ExecWorkers: sc.ExecWorkers, Params: &params,
		LLCBytes: llcBytes, LLCWays: llcWays, Trace: sc.Trace,
	}, nil
}

// WorkloadConfig returns the trace-replay run of a workload scenario: an
// open-loop arrival trace at RPS over a Devices-rank fleet, the Zipf
// 0.99 KV mix, autoscaler and observability plane off.
func (sc BenchScenario) WorkloadConfig() (workload.RunConfig, error) {
	res, err := sc.resolve()
	if err != nil {
		return workload.RunConfig{}, err
	}
	return workload.RunConfig{
		Kind: sc.Workload, Ranks: sc.Devices, Policy: res.policy,
		Conns: sc.Conns, Workers: sc.Workers, Seed: sc.Seed,
		HorizonPs: sc.WarmupPs + sc.MeasurePs, WarmupPs: sc.WarmupPs,
		KV:       workload.KVConfig{ZipfS: 0.99},
		Arrivals: wrkgen.ArrivalConfig{Streams: 4, BaseRPS: sc.RPS},
	}, nil
}

// StripVolatile removes the wall-clock KPIs ("wall_*",
// "sim_req_per_wall_s") from a report in place and returns it. Baseline
// pinning must call this: wall KPIs vary run to run and host to host,
// and the comparison gate treats a baseline key missing from a fresh
// run as a drift.
func StripVolatile(rep *BenchReport) *BenchReport {
	for _, r := range rep.Scenarios {
		for k := range r.KPIs {
			if k == "sim_req_per_wall_s" || len(k) >= 5 && k[:5] == "wall_" {
				delete(r.KPIs, k)
			}
		}
	}
	return rep
}

// MarshalBench renders a report as stable, committed-diff-friendly
// JSON: scenarios in run order, KPI keys sorted (map marshaling sorts),
// trailing newline.
func MarshalBench(rep *BenchReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// UnmarshalBench parses a committed report.
func UnmarshalBench(data []byte) (*BenchReport, error) {
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Drift is one KPI that moved beyond tolerance (or vanished).
type Drift struct {
	Scenario string
	KPI      string
	Base     float64
	Got      float64
	Rel      float64 // |got-base| / max(|base|, epsilon); +Inf when missing
}

func (d Drift) String() string {
	return fmt.Sprintf("%s/%s: baseline %g, got %g (drift %.2f%%)",
		d.Scenario, d.KPI, d.Base, d.Got, d.Rel*100)
}

// CompareBench checks a fresh report against the baseline: every
// baseline scenario and KPI must be present and within rel tolerance.
// New scenarios/KPIs in got (not yet in the baseline) are not drifts —
// they appear once the baseline is re-pinned with -update-baseline.
func CompareBench(base, got *BenchReport, tol float64) []Drift {
	byName := map[string]BenchResult{}
	for _, r := range got.Scenarios {
		byName[r.Name] = r
	}
	var drifts []Drift
	for _, b := range base.Scenarios {
		g, ok := byName[b.Name]
		if !ok {
			drifts = append(drifts, Drift{Scenario: b.Name, KPI: "(scenario)", Rel: math.Inf(1)})
			continue
		}
		names := make([]string, 0, len(b.KPIs))
		for k := range b.KPIs {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			bv := b.KPIs[k]
			gv, ok := g.KPIs[k]
			if !ok {
				drifts = append(drifts, Drift{Scenario: b.Name, KPI: k, Base: bv, Rel: math.Inf(1)})
				continue
			}
			denom := math.Abs(bv)
			if denom < 1e-12 {
				denom = 1e-12
			}
			rel := math.Abs(gv-bv) / denom
			if rel > tol {
				drifts = append(drifts, Drift{Scenario: b.Name, KPI: k, Base: bv, Got: gv, Rel: rel})
			}
		}
	}
	return drifts
}
