// Command simbench measures how fast the simulator runs, in host time:
// simulated requests retired per wall-second, set-up time, CPU time and
// allocation per simulated request, and the heap the simulated system
// holds. A traced run
// (--trace 1) reports per-layer work counters and the share of host CPU
// each simulator module takes instead. Simulated KPIs are not metrics
// here: they are checked as outputs (check.go). See README.md.
//
// Run it from the repository root:
//
//	bash simbench/run.sh --workload tls4k-smartdimm --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "wall seconds of repeated runs to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	updatePins := fs.Bool("update-pins", false, "print pins.json for the current simulator and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *updatePins {
		return printPins(stdout)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU()))
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	b := &bench{w: w, seed: *seed, params: sim.DefaultParams(), pin: pins[w.name], log: os.Stderr}
	if b.pin.Vector == nil {
		return fmt.Errorf("pins.json has no entry for %s", w.name)
	}
	if *seed == defaultSeed {
		b.ref = b.pin
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		res, err = b.untraced(budget)
	} else {
		res, err = b.traced(budget)
	}
	if err != nil {
		return err
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "failed run:", e)
	}
	return json.NewEncoder(stdout).Encode(res)
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench repeats one workload at one seed, checking every run.
type bench struct {
	w      scenario
	seed   int64
	params sim.Params
	// pin is the workload's outputs at the default seed; ref is the
	// expected outputs at seed: the pin, or at any other seed the first
	// run's.
	pin, ref pin

	attempted, failed int
	errs              []error
	log               io.Writer // one line per run; nil for none
}

// traceDir receives the traced run's Perfetto span trace.
const traceDir = ".bench_build/traces"

// sample is the host-side measurement of one run. Engine figures cover
// the measured window only; the simulated warm-up window runs first,
// untimed.
type sample struct {
	setup   time.Duration // system construction
	measure time.Duration // engine wall time over the measured window
	cpu     time.Duration // process user+sys CPU over the measured window
	alloc   uint64        // bytes allocated over the measured window
	live    uint64        // heap bytes reachable after the run, the system still held
	out     outcome
	procNs  []int64 // host ns of each Process call in the window (traced runs)
}

// tracer is the instrumentation of a traced run.
type tracer struct {
	spans *spanLog
	timer procTimer
	self  map[string]int64 // CPU ns by module over the engine phases
	prof  cpuProfile
}

// once builds, runs and checks the workload one time. Every run counts
// as attempted; a run that errors or fails the output check counts as
// failed. ok reports whether the run simulated its whole window, so that
// its timing is usable even when its outputs are wrong.
func (b *bench) once(tr *tracer) (s sample, ok bool) {
	b.attempted++
	runtime.GC()
	o := options{seed: b.seed, params: b.params}
	if tr != nil {
		o.timer = &tr.timer
		tr.timer.durs = tr.timer.durs[:0]
	}
	t0 := time.Now()
	rg, err := b.w.rig(o)
	s.setup = time.Since(t0)
	if err != nil {
		return s, b.fail(fmt.Errorf("setup: %w", err))
	}
	if tr != nil {
		tr.spans.span("setup", t0, s.setup)
		if err := tr.prof.start(); err != nil {
			return s, b.fail(err)
		}
	}
	t1 := time.Now()
	rg.warmup()
	var mark int
	if tr != nil {
		mark = len(tr.timer.durs)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t2 := time.Now()
	rg.measure()
	s.measure = time.Since(t2)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	s.cpu = cpu1 - cpu0
	s.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	if tr != nil {
		if err := tr.prof.stop(tr.self); err != nil {
			return s, b.fail(err)
		}
		tr.spans.span("engine.warmup", t1, t2.Sub(t1))
		tr.spans.span("engine.measure", t2, s.measure)
		s.procNs = append([]int64(nil), tr.timer.durs[mark:]...)
		tr.timer.spans = nil // offload.process spans from the first traced run only
	}
	if s.out, err = rg.result(); err != nil {
		return s, b.fail(fmt.Errorf("run: %w", err))
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	s.live = ms1.HeapAlloc
	runtime.KeepAlive(rg)
	if b.log != nil {
		fmt.Fprintf(b.log, "run %d: setup %.4fs measure %.4fs cpu %.4fs alloc %d live %d requests %d\n",
			b.attempted, s.setup.Seconds(), s.measure.Seconds(), s.cpu.Seconds(), s.alloc, s.live, s.out.requests)
	}
	if b.ref.Vector == nil {
		b.ref = s.out.pin()
	}
	if err := checkOutcome(s.out, b.ref); err != nil {
		b.fail(fmt.Errorf("check: %w", err))
	}
	return s, true
}

// fail counts the current run as failed and returns false.
func (b *bench) fail(err error) bool {
	b.failed++
	b.errs = append(b.errs, err)
	return false
}

// repeat runs the workload until budget has passed and at least minRuns
// runs have measured, returning the measured samples.
func (b *bench) repeat(budget time.Duration, minRuns int, tr *tracer) []sample {
	var got []sample
	start := time.Now()
	for len(got) < minRuns || time.Since(start) < budget {
		s, ok := b.once(tr)
		if !ok {
			if b.failed > 2*minRuns {
				break // a build that keeps failing: report what we have
			}
			continue
		}
		got = append(got, s)
	}
	return got
}

// canary runs the workload once, untimed, at the default seed and checks
// it against its pin. Every benchmark run starts with it, so every run
// checks the simulated outputs against pins.json whatever its seed; it
// also warms the heap and the page tables.
func (b *bench) canary() {
	seed, ref := b.seed, b.ref
	b.seed, b.ref = defaultSeed, b.pin
	b.once(nil)
	b.seed, b.ref = seed, ref
}

// untraced measures the end-to-end metrics: the canary, then repeated
// runs for budget.
func (b *bench) untraced(budget time.Duration) (result, error) {
	b.canary()
	samples := b.repeat(budget, 3, nil)
	if len(samples) == 0 {
		return result{}, fmt.Errorf("%s: no run completed: %v", b.w.name, b.errs)
	}
	res := b.result()
	res.Metrics = map[string]metric{
		"sim_req_per_wall_s":  {medianOf(samples, func(s sample) float64 { return float64(s.out.requests) / s.measure.Seconds() }), "1/s"},
		"setup_s":             {medianOf(samples, func(s sample) float64 { return s.setup.Seconds() }), "s"},
		"cpu_s_per_kreq":      {medianOf(samples, func(s sample) float64 { return s.cpu.Seconds() / (float64(s.out.requests) / 1000) }), "s"},
		"alloc_bytes_per_req": {medianOf(samples, func(s sample) float64 { return float64(s.alloc) / float64(s.out.requests) }), "B"},
		"live_heap_mb":        {medianOf(samples, func(s sample) float64 { return float64(s.live) / (1 << 20) }), "MiB"},
	}
	return res, nil
}

// result fills the run accounting; the canary counts too.
func (b *bench) result() result {
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
}

// traced measures the per-layer metrics: untraced runs for half the
// budget, then runs with the CPU profile, the Process timer and the span
// log on for the other half. The spans are written to traceDir as
// Perfetto JSON.
func (b *bench) traced(budget time.Duration) (result, error) {
	b.canary()
	plain := b.repeat(budget/2, 2, nil)
	origin := time.Now()
	tr := &tracer{spans: newSpanLog(origin), self: map[string]int64{}}
	tr.timer.spans = tr.spans
	traced := b.repeat(budget/2, 2, tr)
	if len(plain) == 0 || len(traced) == 0 {
		return result{}, fmt.Errorf("%s: no run completed: %v", b.w.name, b.errs)
	}
	res := b.result()
	res.Metrics = map[string]metric{}
	add := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	v := traced[0].out.vector
	req := float64(traced[0].out.requests)
	perReq := func(k string) float64 { return v[k] / req }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	add("sim.events_per_req", perReq("sim.events"), "count")
	add("sim.ns_per_event", medianOf(plain, func(s sample) float64 {
		return float64(s.measure.Nanoseconds()) / s.out.vector["sim.events"]
	}), "ns")
	add("sim.epochs_per_req", perReq("sim.epochs"), "count")
	add("sim.cross_shard_msgs_per_req", perReq("sim.cross_shard_msgs"), "count")
	add("core.dsa_lines_per_req", perReq("core.dsa_lines"), "count")
	add("core.registrations_per_req", perReq("core.registrations"), "count")
	add("core.force_recycles_per_req", perReq("core.force_recycles"), "count")
	add("core.self_recycle_ratio", ratio(v["core.self_recycles"], v["core.pages_recycled"]), "ratio")
	add("cuckoo.displacements_per_insert", ratio(v["cuckoo.displacements"], v["cuckoo.inserts"]), "ratio")
	add("cache.llc_accesses_per_req", perReq("cache.llc_accesses"), "count")
	add("cache.llc_miss_rate", ratio(v["cache.llc_misses"], v["cache.llc_accesses"]), "ratio")
	add("cache.writebacks_per_req", perReq("cache.writebacks"), "count")
	add("memctrl.reads_per_req", perReq("memctrl.reads"), "count")
	add("memctrl.writes_per_req", perReq("memctrl.writes"), "count")
	add("memctrl.drains_per_req", perReq("memctrl.drains"), "count")
	add("memctrl.row_hit_rate", ratio(v["memctrl.row_hits"], v["memctrl.row_hits"]+v["memctrl.row_misses"]), "ratio")

	var calls, procNs, measureNs float64
	var durs []int64
	for _, s := range traced {
		calls += float64(len(s.procNs))
		for _, d := range s.procNs {
			procNs += float64(d)
		}
		durs = append(durs, s.procNs...)
		measureNs += float64(s.measure.Nanoseconds())
	}
	add("offload.process_calls_per_req", calls/(req*float64(len(traced))), "count")
	add("offload.process_us_p50", percentile(durs, 50)/1000, "us")
	add("offload.process_us_p99", percentile(durs, 99)/1000, "us")
	add("offload.busy_frac", procNs/measureNs, "frac")

	fracs, err := hostFracs(tr.self)
	if err != nil {
		return result{}, err
	}
	for m, f := range fracs {
		add("host_frac."+m, f, "frac")
	}
	wall := func(s sample) float64 { return s.measure.Seconds() }
	add("tracing_overhead_frac", medianOf(traced, wall)/medianOf(plain, wall)-1, "frac")
	add("failed_run_frac", float64(res.Failed)/float64(res.Attempted), "frac")

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	path := fmt.Sprintf("%s/%s-seed%d.trace.json", traceDir, b.w.name, b.seed)
	if err := os.WriteFile(path, tr.spans.tr.PerfettoJSON(), 0o644); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "simbench: span trace %s (go run ./cmd/tracestat -trace %s -tree)\n", path, path)
	return res, nil
}

// hostFracs turns CPU time by module into shares of the total, one per
// module, that sum to 1.
func hostFracs(self map[string]int64) (map[string]float64, error) {
	var total int64
	for _, ns := range self {
		total += ns
	}
	if total <= 0 {
		return nil, fmt.Errorf("cpu profile: no samples")
	}
	fracs := map[string]float64{}
	sum := 0.0
	for _, m := range modules {
		fracs[m] = float64(self[m]) / float64(total)
		sum += fracs[m]
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return nil, fmt.Errorf("host_frac shares sum to %v, want 1", sum)
	}
	return fracs, nil
}

// printPins runs every workload once at the default seed and prints the
// pins.json that records its outputs.
func printPins(stdout io.Writer) error {
	pins := map[string]pin{}
	for _, w := range workloads {
		b := &bench{w: w, seed: defaultSeed, params: sim.DefaultParams()}
		s, _ := b.once(nil)
		if b.failed > 0 {
			return fmt.Errorf("%s: %v", w.name, b.errs)
		}
		pins[w.name] = s.out.pin()
	}
	out, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func medianOf(samples []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile is the nearest-rank percentile of ns durations, sorting
// them in place; 0 when there are none.
func percentile(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	i := int(math.Ceil(p/100*float64(len(ns)))) - 1
	return float64(ns[max(0, i)])
}
