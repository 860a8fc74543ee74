package chaos

import (
	"testing"

	"repro/internal/sim"
)

// TestShardedChaosSoak sweeps seeds at full parallelism, checking
// invariants inside RunSharded and that faults actually land.
func TestShardedChaosSoak(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rep, _, err := RunSharded(seed, ShardedSoakConfig{MeasurePs: 2 * sim.Ms})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		if rep.Requests == 0 || rep.Consults == 0 {
			t.Fatalf("seed %d: soak did not exercise the cluster: %+v", seed, rep)
		}
		if rep.Fired > 0 && rep.Errors == 0 && rep.FallbackOps == 0 && rep.Trips == 0 {
			t.Errorf("seed %d: %d faults fired with no visible reaction", seed, rep.Fired)
		}
	}
}
