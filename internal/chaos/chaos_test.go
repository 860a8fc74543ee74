package chaos

import (
	"testing"
)

// soakSize returns the number of randomized schedules to run: bounded
// under -short, the full soak otherwise (ci.sh's full pass).
func soakSize() int {
	if testing.Short() {
		return 40
	}
	return 200
}

// TestChaosSoak runs randomized fault schedules across all layers and
// fails on the first invariant violation, reporting the seed so the
// schedule can be replayed exactly.
func TestChaosSoak(t *testing.T) {
	n := soakSize()
	var fired, consults int64
	var primary, fallback uint64
	tolerated := 0
	for i := 0; i < n; i++ {
		seed := int64(1000 + i*7919)
		rep, err := Run(seed, 12, nil)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d: %d invariant violations:\n%s\ntrace:\n%s",
				seed, len(rep.Violations), rep.Violations[0], rep.Trace)
		}
		fired += rep.Fired
		consults += rep.Consults
		primary += rep.PrimaryOps
		fallback += rep.FallbackOps
		tolerated += rep.Tolerated
	}
	// The soak must actually exercise the machinery: faults fire, some
	// chunks degrade to the CPU rung, and plenty still take the DSA path.
	if fired == 0 {
		t.Fatal("no faults fired across the whole soak")
	}
	if fallback == 0 {
		t.Fatal("no chunk ever took the CPU fallback rung")
	}
	if primary == 0 {
		t.Fatal("no chunk ever took the DSA path")
	}
	t.Logf("soak: %d schedules, %d/%d consultations fired, %d primary / %d fallback chunks, %d tolerated op failures",
		n, fired, consults, primary, fallback, tolerated)
}

// TestChaosNoInjectionBaseline checks the harness itself: seed 7 runs a
// single operation under its schedule, then the plain-DIMM phase and the
// disarm/drain/conservation checks, and must end with no violation.
func TestChaosNoInjectionBaseline(t *testing.T) {
	rep, err := Run(7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violations on a single-op scenario: %v", rep.Violations)
	}
}

// TestFleetChaosSoak runs randomized fault schedules through a 3-rank
// fleet with forced member failures mid-stream, and fails on the first
// cross-fleet invariant violation. The fleet scenario is heavier than
// the single-device one, so it runs half as many schedules — still
// covering every placement policy many times over.
func TestFleetChaosSoak(t *testing.T) {
	n := soakSize() / 2
	var fired int64
	var primary, fallback, trips, readmits, migrations uint64
	tolerated := 0
	for i := 0; i < n; i++ {
		seed := int64(5000 + i*6007)
		rep, err := RunFleet(seed, 16, nil)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d (policy %s): %d invariant violations:\n%s\nplacement:\n%s",
				seed, rep.Policy, len(rep.Violations), rep.Violations[0], rep.Placement)
		}
		fired += rep.Fired
		primary += rep.PrimaryOps
		fallback += rep.FallbackOps
		trips += rep.Trips
		readmits += rep.Readmits
		migrations += rep.Migrations
		tolerated += rep.Tolerated
	}
	// The soak must exercise the failure machinery, not just clean paths:
	// members trip and readmit, connections migrate between ranks, and
	// chunks take both the DSA path and the fallback rung.
	if fired == 0 {
		t.Fatal("no faults fired across the fleet soak")
	}
	if trips == 0 {
		t.Fatal("no member breaker ever tripped")
	}
	if readmits == 0 {
		t.Fatal("no tripped member was ever readmitted")
	}
	if migrations == 0 {
		t.Fatal("no connection ever migrated between ranks")
	}
	if primary == 0 || fallback == 0 {
		t.Fatalf("degradation ladder not exercised: %d primary / %d fallback chunks", primary, fallback)
	}
	t.Logf("fleet soak: %d schedules, %d faults fired, %d trips / %d readmits / %d migrations, %d primary / %d fallback chunks, %d tolerated failures",
		n, fired, trips, readmits, migrations, primary, fallback, tolerated)
}
