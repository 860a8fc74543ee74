package chaos

import (
	"testing"
)

// TestRDMASoak runs randomized fault schedules through the peer-DMA
// ingress — doorbell loss, RNR NAKs, rogue out-of-bounds writes, and
// the two forced races (MR unregister in flight, peer write across a
// migration) — and fails on the first invariant violation, reporting
// the seed so the schedule replays exactly.
func TestRDMASoak(t *testing.T) {
	n := soakSize() / 2
	var fired int64
	var posted, completed, failed uint64
	var lost, naks, stale, bounds, migrations uint64
	tolerated := 0
	for i := 0; i < n; i++ {
		seed := int64(9000 + i*7907)
		rep, err := RunRDMA(seed, 24)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d (policy %s): %d invariant violations:\n%s\ntrace:\n%s",
				seed, rep.Policy, len(rep.Violations), rep.Violations[0], rep.Trace)
		}
		fired += rep.Fired
		posted += rep.Posted
		completed += rep.Completed
		failed += rep.Failed
		lost += rep.DoorbellsLost
		naks += rep.RNRNaks
		stale += rep.StaleRetries
		bounds += rep.BoundsRefusals
		migrations += rep.Migrations
		tolerated += rep.Tolerated
	}
	// The soak must exercise the whole failure surface, not just the
	// clean path: doorbells get lost, receivers NAK, rogue writes are
	// refused, and in-flight WQEs cross migrations.
	if fired == 0 {
		t.Fatal("no faults fired across the rdma soak")
	}
	if lost == 0 {
		t.Fatal("no doorbell was ever lost")
	}
	if naks == 0 {
		t.Fatal("no RNR NAK was ever injected")
	}
	if bounds == 0 {
		t.Fatal("no rogue write was ever refused")
	}
	if stale == 0 {
		t.Fatal("no in-flight WQE ever crossed a migration")
	}
	if migrations == 0 {
		t.Fatal("no connection ever migrated")
	}
	if completed == 0 || posted != completed+failed {
		t.Fatalf("wqe ledger: posted %d, completed %d, failed %d", posted, completed, failed)
	}
	t.Logf("rdma soak: %d schedules, %d fired, %d posted (%d ok / %d failed), %d lost doorbells, %d naks, %d stale retargets, %d bounds refusals, %d migrations, %d tolerated",
		n, fired, posted, completed, failed, lost, naks, stale, bounds, migrations, tolerated)
}

// TestRDMANoInjectionBaseline checks the harness itself: a single-op
// scenario under seed 7's schedule must pass clean.
func TestRDMANoInjectionBaseline(t *testing.T) {
	rep, err := RunRDMA(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violations on a single-op scenario: %v", rep.Violations)
	}
}
