package chaos

import (
	"testing"
)

// TestWorkloadSoak runs the pinned flash-crowd + rank-fault scenario
// and requires its invariants to hold.
func TestWorkloadSoak(t *testing.T) {
	rep, err := RunWorkloadSoak(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	run := rep.Run
	if run.Fleet.AdminAdmits == 0 || run.Fleet.Trips == 0 {
		t.Fatalf("soak exercised nothing: admits=%d trips=%d", run.Fleet.AdminAdmits, run.Fleet.Trips)
	}
	t.Logf("soak: issued=%d slo_held=%.0f%% actions=%d final_active=%d",
		run.Issued, run.SLOHeldFrac*100, len(run.Actions), run.FinalActive)
}
