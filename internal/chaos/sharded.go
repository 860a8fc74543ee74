// Sharded chaos: the serving-path soak run on the sharded PDES cluster.
// Every server shard gets its own seeded fault injector (independent
// streams, like distinct machines in a rack failing independently); the
// soak drives the closed-loop workload through the dispatch fabric,
// classifies every server-side failure against the degradable-error
// taxonomy, and checks the per-shard conservation invariants while the
// cluster is still live. The whole report — per-shard fault traces,
// breaker totals, serving counters — renders to one deterministic
// string, and the shard determinism gate requires it byte-identical for
// any ExecWorkers/GOMAXPROCS combination: fault injection must not
// open a nondeterminism hole the fault-free gates can't see.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/sim"
)

// ShardedReport summarizes one sharded chaos soak.
type ShardedReport struct {
	Seed   int64
	Shards int
	// Requests/Errors/Tolerated aggregate the serving outcome: Errors is
	// the servers' abandoned-request count, Tolerated how many shards
	// ended on a degradable last error.
	Requests  uint64
	Errors    uint64
	Tolerated int
	// Consults/Fired sum the injector totals across shards.
	Consults, Fired int64
	// Trips/Readmits/FallbackOps sum the per-shard fleet reactions.
	Trips, Readmits, FallbackOps uint64
	Epochs, CrossMsgs            uint64
	Violations                   []string
	// PerShard holds one deterministic line per shard; Traces the
	// per-shard canonical fault traces.
	PerShard []string
	Traces   []string
	// Canonical renders the whole report; the same seed must reproduce
	// it byte for byte under any execution schedule.
	Canonical string
}

func (r *ShardedReport) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sharded chaos seed=%d shards=%d\n", r.Seed, r.Shards)
	fmt.Fprintf(&b, "requests=%d errors=%d tolerated=%d\n", r.Requests, r.Errors, r.Tolerated)
	fmt.Fprintf(&b, "faults consults=%d fired=%d\n", r.Consults, r.Fired)
	fmt.Fprintf(&b, "fleet trips=%d readmits=%d fallback=%d\n", r.Trips, r.Readmits, r.FallbackOps)
	fmt.Fprintf(&b, "engine epochs=%d cross_msgs=%d\n", r.Epochs, r.CrossMsgs)
	for _, line := range r.PerShard {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	for s, tr := range r.Traces {
		fmt.Fprintf(&b, "-- shard %d fault trace --\n%s", s, tr)
	}
	writeViolations(&b, r.Violations)
	return b.String()
}

// armServingSites installs a seeded per-shard fault plan on the sites
// the serving path consults: CRC corruption on the rank's command bus
// and ALERT_n assertions against the device MMIO window, plus an
// occasional DSA engine fault. Rates stay low enough that the breaker
// degrades instead of every request dying, so the soak exercises the
// trip/fallback/readmit machinery across shards.
func armServingSites(rng *rand.Rand, inj *fault.Injector) {
	inj.Arm("memctrl.crc", fault.Bernoulli{Prob: 0.002 + 0.01*rng.Float64()})
	inj.Arm("core.alert", fault.Bernoulli{Prob: 0.002 + 0.01*rng.Float64()})
	if rng.Intn(2) == 0 {
		inj.Arm("core.dsa", fault.Periodic{Every: int64(40 + rng.Intn(100)), Offset: int64(rng.Intn(10))})
	}
}

// The sharded soak's fixed shape: two server shards, four connections
// each.
const (
	soakShards      = 2
	soakConnections = 4 * soakShards
)

// ShardedSoakConfig sizes a RunSharded soak.
type ShardedSoakConfig struct {
	ExecWorkers int   // epoch parallelism: 0 = GOMAXPROCS, 1 = serial reference
	MeasurePs   int64 // measurement window
	Trace       bool  // thread per-shard span tracers through the run
}

// RunSharded executes one sharded chaos soak: a compressed-HTTP serving
// workload over two fault-injected sub-systems, the standard
// warmup/measure protocol, then invariant checks per shard. The
// returned error reports harness construction failures only; invariant
// breaches land in ShardedReport.Violations. The cluster is returned
// alongside so callers can fingerprint its merged trace.
func RunSharded(seed int64, cfg ShardedSoakConfig) (ShardedReport, *fleet.Sharded, error) {
	rep := ShardedReport{Seed: seed, Shards: soakShards}

	injs := make([]*fault.Injector, soakShards)
	sc, err := fleet.NewSharded(fleet.ShardedConfig{
		Shards: soakShards, Workers: 4,
		MsgSize: 2048, Connections: soakConnections,
		FileKind: corpus.HTML, Mode: server.CompressedHTTP, Seed: seed,
		ExecWorkers: cfg.ExecWorkers,
		Trace:       cfg.Trace,
		Faults: func(shard int) *fault.Injector {
			// A per-shard RNG derived from (seed, shard) picks the plan;
			// the injector's own site streams derive from its seed — both
			// independent of any other shard.
			inj := fault.New(seed + int64(shard)*7919)
			armServingSites(rand.New(rand.NewSource(seed^int64(shard+1)*104729)), inj)
			injs[shard] = inj
			return inj
		},
	})
	if err != nil {
		return rep, nil, err
	}

	sc.Generator().Start()
	sc.Engine().RunUntil(sim.Ms)
	for _, srv := range sc.Servers() {
		srv.BeginMeasurement()
	}
	sc.Generator().BeginMeasurement()
	sc.Engine().RunUntil(sim.Ms + cfg.MeasurePs)

	for s, srv := range sc.Servers() {
		m := srv.Collect()
		rep.Requests += m.Requests
		rep.Errors += m.Errors
		if err := srv.LastError(); err != nil {
			if tolerable(err) {
				rep.Tolerated++
			} else {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("shard %d: non-degradable error: %v", s, err))
			}
		}
		if m.Requests == 0 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("shard %d: served no requests under fault load", s))
		}
		fl := sc.Fleets()[s]
		t := fl.Totals()
		rep.Trips += t.Trips
		rep.Readmits += t.Readmits
		rep.FallbackOps += t.Degraded.FallbackOps
		// Conservation while live: pages allocated across the shard's
		// ranks must equal what its connections hold, even mid-fault.
		if out, exp := fl.OutstandingPages(), fl.ExpectedPages(); out != exp {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("shard %d: conservation: %d pages allocated, connections hold %d", s, out, exp))
		}
		consults, fired := injs[s].Counts()
		rep.Consults += consults
		rep.Fired += fired
		if consults == 0 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("shard %d: fault sites never consulted — injection not wired through", s))
		}
		rep.PerShard = append(rep.PerShard, fmt.Sprintf(
			"shard%d requests=%d errors=%d consults=%d fired=%d trips=%d fallback=%d",
			s, m.Requests, m.Errors, consults, fired, t.Trips, t.Degraded.FallbackOps))
		rep.Traces = append(rep.Traces, injs[s].TraceString())
	}
	rep.Epochs = sc.Engine().Epochs()
	rep.CrossMsgs = sc.Engine().Sent()
	if rep.Requests > 0 && rep.CrossMsgs < 2*(rep.Requests-soakConnections) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"dispatch fabric undercounted: %d msgs for %d requests", rep.CrossMsgs, rep.Requests))
	}
	rep.Canonical = rep.canonical()
	return rep, sc, nil
}
