// Incident chaos: the observability-plane soak behind `./ci.sh obs`.
// It reruns the workload scenario with the flash crowd pushed past the
// two initial ranks' collapse point and the full alerting/recording
// stack armed — a 100us scraper, the default burn-rate + breaker rules,
// and a flight recorder with a 2ms lookback — and checks the incident
// narrative an on-call operator would reconstruct:
//
//   - the burn-rate page leads: the crowd alone breaches the tail, so
//     the SLO page fires before the injected rank failure trips the
//     breaker — detection from symptoms, not just from the fault event;
//   - every alert resolves: by run end each rule's last transition is
//     back to inactive (the autoscaler's added capacity absorbed the
//     crowd and the restored rank cleared the breaker);
//   - each firing froze a bundle: one incident per firing, none
//     dropped, each carrying a non-empty trace slice and a timeline
//     that correlates the cause — the breaker incident contains the
//     injected fault note, the burn incident the autoscaler's response;
//   - replayability: the report canonical (run canonical with actions +
//     alert log, then every incident bundle with its trace digest) is
//     byte-identical from the same seed, serial or pooled, at any
//     GOMAXPROCS.
package chaos

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// incidentSoakConfig is the workload soak scenario with the crowd
// hardened and the observability plane armed; seed and pool vary.
func incidentSoakConfig(seed int64, pool *runner.Pool) workload.RunConfig {
	cfg := workloadSoakConfig(seed, pool)
	// 3.0x on base 900k peaks ~2.7M rps — at the two initial ranks'
	// collapse point, so the tail breaches from the crowd alone and the
	// burn-rate page leads the injected rank failure instead of
	// trailing it.
	cfg.Arrivals.Flash[0].Mult = 3.0
	cfg.ScrapePs = 100 * sim.Us
	cfg.Rules = workload.DefaultAlertRules(cfg.Scale.SLOPs)
	cfg.Record = true
	cfg.LookbackPs = 2 * sim.Ms
	return cfg
}

// RunIncidentSoak executes the soak once. Construction failures return
// an error; invariant breaches land in Violations.
func RunIncidentSoak(seed int64, pool *runner.Pool) (WorkloadReport, error) {
	rep, err := workload.Run(incidentSoakConfig(seed, pool))
	if err != nil {
		return WorkloadReport{}, err
	}
	out := WorkloadReport{Seed: seed, Run: rep}
	v := func(format string, args ...any) {
		out.Violations = append(out.Violations, fmt.Sprintf(format, args...))
	}

	// Walk the transition log once: first firing per rule, last state
	// per rule (in first-seen order, so violations render stably).
	firstFiring := map[string]int64{}
	lastByRule := map[string]obs.Transition{}
	var ruleOrder []string
	firings := 0
	for _, tr := range rep.Alerts {
		if _, seen := lastByRule[tr.Rule]; !seen {
			ruleOrder = append(ruleOrder, tr.Rule)
		}
		lastByRule[tr.Rule] = tr
		if tr.To == obs.Firing {
			firings++
			if _, ok := firstFiring[tr.Rule]; !ok {
				firstFiring[tr.Rule] = tr.AtPs
			}
		}
	}
	burnAt, burnOK := firstFiring["slo-burn"]
	tripAt, tripOK := firstFiring["breaker-trip"]
	if !burnOK {
		v("burn-rate page never fired")
	}
	if !tripOK {
		v("breaker-trip alert never fired")
	}
	if burnOK && tripOK && burnAt >= tripAt {
		v("burn-rate page at %d did not lead the breaker alert at %d", burnAt, tripAt)
	}
	for _, rule := range ruleOrder {
		if tr := lastByRule[rule]; tr.To != obs.Inactive {
			v("rule %s ended %s at %d (never resolved)", rule, tr.To, tr.AtPs)
		}
	}

	// Every firing froze exactly one bundle, and each bundle correlates
	// its cause.
	if len(rep.Incidents) != firings {
		v("%d incidents captured for %d firings", len(rep.Incidents), firings)
	}
	if rep.IncidentsDropped != 0 {
		v("%d incidents dropped", rep.IncidentsDropped)
	}
	for _, in := range rep.Incidents {
		if !strings.Contains(in.Report, "rule="+in.Rule) {
			v("incident at %d misattributed (rule %q not in report header)", in.AtPs, in.Rule)
		}
		if in.Trace == nil || in.Trace.Len() == 0 {
			v("incident %s at %d carries no trace slice", in.Rule, in.AtPs)
		}
		if in.Rule == "breaker-trip" && !strings.Contains(in.Report, " fault ") {
			v("breaker incident at %d missing the injected fault from its timeline", in.AtPs)
		}
		if in.Rule == "slo-burn" && !strings.Contains(in.Report, " action ") {
			v("burn incident at %d missing the autoscaler response from its timeline", in.AtPs)
		}
	}

	// This is a genuine incident run: the SLO must actually have been
	// violated for a stretch, and the controller must still not thrash.
	if rep.SLOHeldFrac > 0.9 {
		v("SLO held %.0f%% of ticks — the scenario never became an incident", rep.SLOHeldFrac*100)
	}
	if rep.Completed == 0 {
		v("no requests completed")
	}
	checkNoFlap(rep.Actions, v)
	out.Canonical = out.canonical()
	return out, nil
}
