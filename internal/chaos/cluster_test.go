package chaos

import (
	"testing"
)

// TestClusterSoakSchedules is the linearizability chaos soak demanded
// by ROADMAP item 2: hundreds of seed-replayable schedules mixing node
// kills, symmetric and asymmetric partitions, drain/rejoin, and packet
// loss — and not one client-acked write may be lost, not one read may
// violate linearizability. -short runs a 40-schedule slice (the CI
// gate); the full run covers 200.
func TestClusterSoakSchedules(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for i := 0; i < n; i++ {
		seed := int64(9000 + i)
		rep, _, err := RunCluster(seed, ClusterSoakConfig{})
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: invariants violated:\n%s", seed, rep.Canonical)
		}
	}
}
