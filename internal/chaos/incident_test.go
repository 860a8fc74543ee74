package chaos

// Incident-soak test: the pinned scenario must reproduce the full alert
// narrative — burn-rate page, breaker alert, both resolved — with one
// incident bundle per firing. TestSoakReplay checks that it replays.

import (
	"strings"
	"testing"
)

// The deterministic alert sequence for seed 7 (calibrated against the
// pinned scenario): the crowd breaches the tail at 3.8ms, the page
// fires at 4.0ms, the injected fault trips the breaker alert at 4.2ms,
// the breaker resolves when the trip slides out of its window, and the
// page resolves once the scaled-up fleet drains the backlog.
var wantAlertLog = strings.Join([]string{
	"3800000000 slo-burn inactive->pending v=2.4",
	"4000000000 slo-burn pending->firing v=3.2",
	"4200000000 breaker-trip inactive->firing v=1",
	"4500000000 breaker-trip firing->inactive v=0",
	"9800000000 slo-burn firing->inactive v=2",
	"",
}, "\n")

func TestIncidentSoak(t *testing.T) {
	rep, err := RunIncidentSoak(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	run := rep.Run
	if run.AlertLog != wantAlertLog {
		t.Fatalf("alert log:\n%swant:\n%s", run.AlertLog, wantAlertLog)
	}
	if len(run.Incidents) != 2 {
		t.Fatalf("%d incidents, want 2", len(run.Incidents))
	}
	// Bundle order is firing order: page first, breaker second.
	if run.Incidents[0].Rule != "slo-burn" || run.Incidents[1].Rule != "breaker-trip" {
		t.Fatalf("incident order = [%s %s], want [slo-burn breaker-trip]",
			run.Incidents[0].Rule, run.Incidents[1].Rule)
	}
	// The breaker bundle's 2ms lookback reaches back across the page:
	// its timeline must correlate the fault, the page, and the
	// autoscaler's first admission.
	breaker := run.Incidents[1].Report
	for _, want := range []string{
		"fault fail rank1",
		"alert slo-burn pending->firing",
		"3600000000 action admit d2",
	} {
		if !strings.Contains(breaker, want) {
			t.Errorf("breaker bundle missing %q:\n%s", want, breaker)
		}
	}
	// Each bundle pins its trace slice with a digest.
	for i, in := range run.Incidents {
		if !strings.Contains(in.Canonical(), "trace_sha256 ") {
			t.Errorf("bundle %d has no trace digest", i)
		}
	}
	t.Logf("incident soak: slo_held=%.0f%% alerts=%d bundles=%d",
		run.SLOHeldFrac*100, len(run.Alerts), len(run.Incidents))
}
