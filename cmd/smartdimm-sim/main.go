// Command smartdimm-sim runs configurable full-system serving
// experiments and prints the measured metrics — the general-purpose CLI
// around the simulator for exploring configurations beyond the paper's.
//
// -msg and -conns accept comma-separated lists; the cartesian product of
// the values is swept, with independent runs fanned across -parallel
// workers (results always print in sweep order).
//
// The flags fill a profile.BenchScenario and the run is built by the same
// builder as the KPI bench, so a run of a bench scenario's shape reports
// that scenario's numbers.
//
// Multi-device fleets: -devices N (default 1) installs N SmartDIMM
// ranks and shards connections across them through internal/fleet. The
// -placement flag accepts the fleet placement policies directly —
// rr (round-robin), leastload, affinity, sticky — and plain "smartdimm"
// with -devices above 1 defaults to the rr policy. Non-SmartDIMM
// placements reject -devices above 1.
//
// Parallel single-run: -shards N splits ONE simulation across N engine
// shards (each a disjoint sub-system of -devices ranks behind its own
// fleet) executed in parallel with conservative lookahead; -exec-workers
// caps the epoch parallelism (1 = serial reference). Reported metrics
// and -trace output are byte-identical for every -exec-workers value.
//
// Examples:
//
//	smartdimm-sim -placement smartdimm -ulp tls -msg 16384 -conns 512
//	smartdimm-sim -placement cpu -ulp compression -msg 4096 -corpus html
//	smartdimm-sim -placement adaptive -llc 4194304 -measure-ms 50
//	smartdimm-sim -placement smartdimm -msg 1024,4096,16384 -conns 64,256
//	smartdimm-sim -placement leastload -devices 4 -ulp compression -conns 128
//	smartdimm-sim -placement rr -devices 4 -datapath peer -msg 16384
//	smartdimm-sim -workload kv -devices 4 -rps 1800000 -conns 64
//	smartdimm-sim -workload embed -devices 4 -rps 500000 -slo-us 100
//	smartdimm-sim -workload kv -devices 4 -rps 2500000 -slo-us 100 -scrape-us 100 -alerts -incident-dir out/
//
// Workload suite: -workload kv|embed replaces the closed-loop generator
// with the trace-replay workload suite (internal/workload) — an
// open-loop arrival trace at -rps drives the KV-cache GET/SET mix or
// the embedding-gather mix over a -devices-rank fleet; -msg is ignored
// (the source's payload mix governs). -slo-us additionally runs the SLO
// autoscaler over the fleet and reports its action log.
//
// Observability (workload runs only): -scrape-us sets the simulated-time
// scrape interval of the metrics plane; -alerts evaluates the default
// alert rules (a multi-window burn-rate page on the -slo-us objective,
// a breaker-trip threshold) and prints the deterministic alert log;
// -incident-dir arms the flight recorder — every alert firing freezes a
// bundle written as incident-<i>-<rule>/report.txt (correlated timeline
// + series summary) and trace.json (the Perfetto slice of the lookback
// window around the firing).
//
// Data path: -datapath host (default) refills page-cache misses by
// storage DMA bounced through host DRAM; -datapath peer installs the
// RDMA NIC model and refills by one-sided writes straight into the
// registered SmartDIMM buffers (requires the smartdimm placement or a
// fleet policy).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/autoscale"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// options carries the flags that are not part of the run's spec: the
// report's extras and the workload run's control planes.
type options struct {
	tracePath   string
	metrics     bool
	profile     bool
	sloUs       float64
	scrapeUs    int64
	alerts      bool
	incidentDir string
}

func main() {
	placement := flag.String("placement", "smartdimm",
		"cpu | smartnic | qat | smartdimm | adaptive, or a fleet policy rr | leastload | affinity | sticky (default policy with -devices > 1: rr)")
	devices := flag.Int("devices", 1, "SmartDIMM ranks; above 1, connections shard across a fleet (see -placement)")
	datapath := flag.String("datapath", "host", "record ingress: host (storage DMA via host DRAM) | peer (zero-copy RDMA into device buffers; needs smartdimm or a fleet placement)")
	shards := flag.Int("shards", 0, "run ONE simulation split across N parallel engine shards (sub-systems with -devices ranks each); 0 = the serial engine")
	execWorkers := flag.Int("exec-workers", 0, "with -shards: epoch execution parallelism (0 = GOMAXPROCS, 1 = serial reference schedule; results are byte-identical either way)")
	ulpName := flag.String("ulp", "tls", "tls | compression | none (plain HTTP)")
	msgList := flag.String("msg", "4096", "message (response body) sizes in bytes, comma-separated")
	connList := flag.String("conns", "256", "persistent connection counts, comma-separated")
	workers := flag.Int("workers", 10, "server worker threads")
	llc := flag.Int("llc", 2<<20, "LLC size in bytes")
	ways := flag.Int("ways", 8, "LLC associativity")
	kindName := flag.String("corpus", "text", "file corpus: zeros|html|text|json|random")
	warmupMs := flag.Int("warmup-ms", 2, "warmup window")
	measureMs := flag.Int("measure-ms", 20, "measurement window")
	seed := flag.Int64("seed", 1, "workload seed")
	par := flag.Int("parallel", 0, "concurrent sweep runs (0 = GOMAXPROCS, 1 = serial)")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace of the run to this file (single-point sweeps only)")
	metrics := flag.Bool("metrics", false, "append the full metrics registry (name value lines) to the report")
	prof := flag.Bool("profile", false, "append the simulated-time profile tree and critical-path table to the report (traces the run internally)")
	workloadName := flag.String("workload", "", "trace-replay workload suite: kv (cache GET/SET mix) | embed (embedding gathers); empty = closed-loop generator")
	rps := flag.Float64("rps", 1e6, "with -workload: open-loop offered rate (requests/s)")
	sloUs := flag.Float64("slo-us", 0, "with -workload: run the SLO autoscaler with this p99 latency objective (us); 0 = no autoscaler")
	scrapeUs := flag.Int64("scrape-us", 0, "with -workload: observability scrape interval (us); 0 = one scrape per control tick")
	alerts := flag.Bool("alerts", false, "with -workload: evaluate the default alert rules (burn-rate page on the -slo-us objective, breaker-trip) and print the alert log")
	incidentDir := flag.String("incident-dir", "", "with -workload: arm the flight recorder and write each incident bundle (report.txt + trace.json) under this directory")
	flag.Parse()

	msgs, err := parseIntList("msg", *msgList)
	if err != nil {
		fatal(err)
	}
	conns, err := parseIntList("conns", *connList)
	if err != nil {
		fatal(err)
	}
	if *devices < 1 {
		fatal(fmt.Errorf("-devices %d: need at least one rank", *devices))
	}
	// -profile analyzes the same event stream a -trace run records, so
	// both flags trace the run.
	spec := profile.BenchScenario{
		Placement: strings.ToLower(*placement), Devices: *devices,
		ULP: strings.ToLower(*ulpName), Workers: *workers, Seed: *seed,
		WarmupPs: int64(*warmupMs) * sim.Ms, MeasurePs: int64(*measureMs) * sim.Ms,
		Shards: *shards, ExecWorkers: *execWorkers, DataPath: strings.ToLower(*datapath),
		Workload: strings.ToLower(*workloadName), RPS: *rps,
		LLCBytes: *llc, LLCWays: *ways, Corpus: strings.ToLower(*kindName),
		Trace: *tracePath != "" || *prof,
	}
	opt := options{
		tracePath: *tracePath, metrics: *metrics, profile: *prof,
		sloUs: *sloUs, scrapeUs: *scrapeUs, alerts: *alerts, incidentDir: *incidentDir,
	}

	var sweep []profile.BenchScenario
	for _, m := range msgs {
		for _, c := range conns {
			sc := spec
			sc.Msg, sc.Conns = m, c
			sweep = append(sweep, sc)
		}
	}
	if len(sweep) > 1 && (opt.tracePath != "" || opt.incidentDir != "") {
		fatal(fmt.Errorf("-trace/-incident-dir: sweep has %d points; tracing and incident capture need a single msg/conns point", len(sweep)))
	}
	var pool *runner.Pool
	if *par != 1 && len(sweep) > 1 {
		pool = runner.New(*par)
	}
	// Each run formats its own report; blocks print in sweep order no
	// matter which worker finishes first.
	blocks, err := runner.Map(context.Background(), pool, sweep,
		func(_ context.Context, sc profile.BenchScenario, _ int) (string, error) {
			return runOne(sc, opt)
		})
	if err != nil {
		fatal(err)
	}
	for i, b := range blocks {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(b)
	}
}

// runOne builds the run sc describes — serial, sharded or workload —
// runs it, and returns the formatted report.
func runOne(sc profile.BenchScenario, opt options) (string, error) {
	if sc.Workload != "" {
		return runWorkload(sc, opt)
	}
	if opt.scrapeUs > 0 || opt.alerts || opt.incidentDir != "" {
		return "", fmt.Errorf("-scrape-us/-alerts/-incident-dir: observability plane runs need -workload")
	}
	if sc.Shards > 0 {
		return runSharded(sc, opt)
	}
	rig, err := profile.Build(sc)
	if err != nil {
		return "", err
	}
	m, err := rig.Run(sc.WarmupPs, sc.MeasurePs)
	if err != nil {
		return "", err
	}
	mode, _ := sc.Mode() // Build has checked the ULP

	var b strings.Builder
	fmt.Fprintf(&b, "placement:   %s\n", sc.Placement)
	fmt.Fprintf(&b, "datapath:    %s\n", sc.DataPath)
	fmt.Fprintf(&b, "mode:        %s, %dB messages, %d connections, %d workers\n", mode, sc.Msg, sc.Conns, sc.Workers)
	writeServing(&b, m, sc.Msg)
	if fl := rig.Fleet; fl != nil {
		t := fl.Totals()
		fmt.Fprintf(&b, "fleet:       %d devices (%s), %d active; %d batches / %d descriptors\n",
			t.Devices, fl.Policy(), t.Active, t.Batches, t.Descriptors)
		fmt.Fprintf(&b, "placement:   %d migrations (%d sheds), %d trips / %d readmits, %d soft ops, fallback rate %.4f\n",
			t.Migrations, t.Sheds, t.Trips, t.Readmits, t.SoftOps, t.Degraded.FallbackRate())
	}
	if sys := rig.Sys; sys.Dev != nil {
		st := sys.Dev.Stats()
		fmt.Fprintf(&b, "smartdimm:   %d registrations, %d DSA lines, %d self-recycles, %d S7, %d S10, %d ALERT_N\n",
			st.Registrations, st.DSALinesFed, st.SelfRecycles, st.IgnoredWrites, st.ScratchpadReads, st.Alerts)
		fmt.Fprintf(&b, "driver:      %d CompCpy, %d force-recycles\n",
			sys.Driver.Stats().CompCpyCalls, sys.Driver.Stats().ForceRecycleCalls)
		if ad, ok := rig.Backend.(*offload.Adaptive); ok {
			fmt.Fprintf(&b, "adaptive:    %d offloaded, %d on CPU (last miss rate %.3f)\n",
				ad.OffloadedN, ad.OnCPUN, ad.LastMissRate)
		}
	}
	if nic := rig.NIC; nic != nil {
		st := nic.Stats()
		fmt.Fprintf(&b, "rdma:        %d MRs (%d live), %d WQEs (%d ok / %d failed), %d doorbells (%.2f wqe/ring, %d lost), %d RNR naks, %d stale retargets\n",
			st.MRs, st.LiveMRs, st.Posted, st.Completed, st.Failed,
			st.Doorbells, st.DoorbellsCoalesce, st.DoorbellsLost, st.RNRNaks, st.StaleRkeyRetries)
		fmt.Fprintf(&b, "             %d peer bytes on the wire (%.2fus serialized), %d preloaded\n",
			st.PeerBytes, float64(st.WirePs)/float64(sim.Us), st.Preloaded)
	}
	if opt.metrics {
		reg := telemetry.NewRegistry()
		reg.Register("server", m)
		rig.Sys.RegisterMetrics(reg)
		if rig.Fleet != nil {
			reg.Register("fleet", rig.Fleet.Totals())
		}
		fmt.Fprintf(&b, "--- metrics ---\n")
		if err := reg.WriteText(&b); err != nil {
			return "", err
		}
	}
	if opt.profile {
		fmt.Fprintf(&b, "--- profile ---\n")
		if err := profile.FromTracer(rig.Tracer).WriteTree(&b); err != nil {
			return "", err
		}
		cp := profile.AnalyzeTracer(rig.Tracer, profile.Options{FromPs: sc.WarmupPs})
		fmt.Fprintf(&b, "--- critical path ---\n")
		if err := cp.WriteTable(&b); err != nil {
			return "", err
		}
	}
	if opt.tracePath != "" {
		if err := writeTrace(&b, opt.tracePath, rig.Tracer); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// writeServing prints the serving metrics every closed-loop report
// shares.
func writeServing(b *strings.Builder, m server.Metrics, msg int) {
	fmt.Fprintf(b, "requests:    %d in %.2fms\n", m.Requests, float64(m.ElapsedPs)/float64(sim.Ms))
	fmt.Fprintf(b, "RPS:         %.0f\n", m.RPS)
	fmt.Fprintf(b, "CPU util:    %.1f%%\n", m.CPUUtil*100)
	fmt.Fprintf(b, "memory BW:   %.3f GB/s (%d bytes)\n", m.MemBWGBps, m.MemBytes)
	fmt.Fprintf(b, "TX:          %d bytes (%.2fx body)\n", m.TXBytes, float64(m.TXBytes)/float64(m.Requests*uint64(msg)))
	fmt.Fprintf(b, "mean latency: %.1f us\n", float64(m.MeanLatPs)/float64(sim.Us))
}

// writeTrace writes tr as Perfetto JSON to path and reports it.
func writeTrace(b *strings.Builder, path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b, "trace:       %s (%d events; open in chrome://tracing or ui.perfetto.dev)\n", path, tr.Len())
	return nil
}

// runWorkload drives the trace-replay workload suite: an open-loop
// arrival trace at sc.RPS over a sc.Devices-rank fleet, optionally
// supervised by the SLO autoscaler (-slo-us).
func runWorkload(sc profile.BenchScenario, opt options) (string, error) {
	rc, err := sc.WorkloadConfig()
	if err != nil {
		return "", err
	}
	if opt.sloUs > 0 {
		rc.Scale = &autoscale.Config{SLOPs: opt.sloUs * float64(sim.Us)}
	}
	if opt.scrapeUs > 0 {
		rc.ScrapePs = opt.scrapeUs * sim.Us
	}
	if opt.alerts || opt.incidentDir != "" {
		// The burn-rate page targets the autoscaler's objective when one
		// is set, the 100us default otherwise.
		slo := opt.sloUs
		if slo <= 0 {
			slo = 100
		}
		rc.Rules = workload.DefaultAlertRules(slo * float64(sim.Us))
	}
	rc.Record = opt.incidentDir != ""
	rep, err := workload.Run(rc)
	if err != nil {
		return "", err
	}
	m := rep.Metrics
	var b strings.Builder
	fmt.Fprintf(&b, "workload:    %s, %.0f rps offered (open loop), %d connections, %d workers\n",
		rep.Kind, sc.RPS, sc.Conns, sc.Workers)
	fmt.Fprintf(&b, "fleet:       %d devices (%s), %d active at end\n", sc.Devices, rc.Policy, rep.FinalActive)
	fmt.Fprintf(&b, "issued:      %d (%d completed, peak in-flight %d)\n", rep.Issued, rep.Completed, rep.PeakInFlight)
	fmt.Fprintf(&b, "requests:    %d in %.2fms\n", m.Requests, float64(m.ElapsedPs)/float64(sim.Ms))
	fmt.Fprintf(&b, "RPS:         %.0f\n", m.RPS)
	fmt.Fprintf(&b, "CPU util:    %.1f%%\n", m.CPUUtil*100)
	fmt.Fprintf(&b, "memory BW:   %.3f GB/s (%d bytes)\n", m.MemBWGBps, m.MemBytes)
	fmt.Fprintf(&b, "latency:     p50 %.1f us, p99 %.1f us (end to end)\n",
		rep.P50Ps/float64(sim.Us), rep.P99Ps/float64(sim.Us))
	switch rep.Kind {
	case "kv":
		fmt.Fprintf(&b, "mix:         %d gets / %d sets\n", rep.Gets, rep.Sets)
	case "embed":
		fmt.Fprintf(&b, "mix:         %d gathers\n", rep.Gathers)
	}
	if rc.Scale != nil {
		fmt.Fprintf(&b, "autoscaler:  SLO %.0fus held %.0f%% of ticks; %d admits, %d drains\n",
			opt.sloUs, rep.SLOHeldFrac*100, rep.Fleet.AdminAdmits, rep.Fleet.AdminDrains)
		if len(rep.Actions) > 0 {
			b.WriteString("--- actions ---\n")
			for _, a := range rep.Actions {
				fmt.Fprintf(&b, "%s\n", a)
			}
		}
	}
	if len(rc.Rules) > 0 {
		fmt.Fprintf(&b, "alerts:      %d transitions, %d incidents (%d dropped)\n",
			len(rep.Alerts), len(rep.Incidents), rep.IncidentsDropped)
		if rep.AlertLog != "" {
			fmt.Fprintf(&b, "--- alerts ---\n%s", rep.AlertLog)
		}
	}
	if opt.incidentDir != "" {
		if err := writeIncidents(opt.incidentDir, rep, &b); err != nil {
			return "", err
		}
	}
	if opt.metrics {
		reg := telemetry.NewRegistry()
		reg.Register("server", m)
		reg.Register("run", rep)
		fmt.Fprintf(&b, "--- metrics ---\n")
		if err := reg.WriteText(&b); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// writeIncidents dumps each captured flight-recorder bundle under dir:
// incident-<i>-<rule>/report.txt holds the correlated text report,
// trace.json the ps-windowed Perfetto slice around the firing.
func writeIncidents(dir string, rep workload.Report, b *strings.Builder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, in := range rep.Incidents {
		sub := filepath.Join(dir, fmt.Sprintf("incident-%d-%s", i, in.Rule))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(sub, "report.txt"), []byte(in.Report), 0o644); err != nil {
			return err
		}
		events := 0
		if in.Trace != nil {
			f, err := os.Create(filepath.Join(sub, "trace.json"))
			if err != nil {
				return err
			}
			if err := in.Trace.WritePerfetto(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			events = in.Trace.Len()
		}
		fmt.Fprintf(b, "incident:    %s (rule %s at %.2fms, %d trace events)\n",
			sub, in.Rule, float64(in.AtPs)/float64(sim.Ms), events)
	}
	if rep.IncidentsDropped > 0 {
		fmt.Fprintf(b, "incident:    %d firings past the bundle cap were dropped\n", rep.IncidentsDropped)
	}
	return nil
}

// runSharded runs one simulation split across sc.Shards parallel engine
// shards (fleet.Sharded): each shard is a disjoint sub-system with
// sc.Devices ranks behind a per-shard fleet backend, the front-end shard
// dispatches connections across them, and epochs execute on
// sc.ExecWorkers goroutines. Reported metrics (and -trace / -metrics
// artifacts) are byte-identical at any -exec-workers setting.
func runSharded(sc profile.BenchScenario, opt options) (string, error) {
	cfg, err := sc.ShardedConfig()
	if err != nil {
		return "", err
	}
	cl, err := fleet.NewSharded(cfg)
	if err != nil {
		return "", err
	}
	sm, err := cl.Run(sc.WarmupPs, sc.MeasurePs)
	if err != nil {
		return "", err
	}
	m := sm.Agg

	var b strings.Builder
	fmt.Fprintf(&b, "placement:   %s, %d shards x %d ranks (exec workers: %d)\n",
		cfg.Policy, sc.Shards, sc.Devices, cl.Engine().Workers)
	fmt.Fprintf(&b, "mode:        %s, %dB messages, %d connections, %d workers/shard\n", cfg.Mode, sc.Msg, sc.Conns, sc.Workers)
	writeServing(&b, m, sc.Msg)
	fmt.Fprintf(&b, "engine:      lookahead %.2fus, %d epochs, %d cross-shard msgs, %d events\n",
		float64(cl.Engine().Lookahead())/float64(sim.Us), sm.Epochs, sm.SentMsgs, sm.Processed)
	for s, ps := range sm.PerShard {
		fmt.Fprintf(&b, "  shard %d:   %d requests, RPS %.0f, mean latency %.1f us\n",
			s, ps.Requests, ps.RPS, float64(ps.MeanLatPs)/float64(sim.Us))
	}
	if opt.metrics {
		reg := telemetry.NewRegistry()
		reg.Register("server", m)
		cl.RegisterMetrics(reg)
		fmt.Fprintf(&b, "--- metrics ---\n")
		if err := reg.WriteText(&b); err != nil {
			return "", err
		}
	}
	merged := cl.MergedTrace()
	if opt.profile {
		fmt.Fprintf(&b, "--- profile ---\n")
		if err := profile.FromTracer(merged).WriteTree(&b); err != nil {
			return "", err
		}
	}
	if opt.tracePath != "" {
		if err := writeTrace(&b, opt.tracePath, merged); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

func parseIntList(name, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-%s: %q is not a positive integer", name, f)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartdimm-sim:", err)
	os.Exit(1)
}
