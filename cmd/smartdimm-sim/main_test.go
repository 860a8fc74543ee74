package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/sim"
)

// TestSingleDeviceRunMatchesBench: a traced -placement smartdimm run at
// the smartdimm-1dev shape serves on the system engine, so it reports
// the KPI bench's requests and RPS, and its offload and driver spans sit
// on the moving simulated clock rather than at ts 0.
func TestSingleDeviceRunMatchesBench(t *testing.T) {
	sc := profile.BenchScenario{
		Placement: "smartdimm", Devices: 1, ULP: "tls", DataPath: "host",
		Msg: 4096, Conns: 64, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms,
	}
	want, err := profile.RunBenchScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.trace.json")
	sc.Trace = true
	out, err := runOne(sc, options{tracePath: path})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf("requests:    %.0f in ", want.KPIs["requests"]),
		fmt.Sprintf("RPS:         %.0f\n", want.KPIs["rps"]),
	} {
		if !strings.Contains(out, line) {
			t.Errorf("report lacks the bench's %q:\n%s", line, out)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tracks, events, err := profile.ReadPerfetto(f)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ev := range events {
		track := tracks[ev.Track]
		if track != "offload" && track != "driver/rank0" {
			continue
		}
		seen[track]++
		if ev.AtPs == 0 {
			t.Fatalf("%s event %q at ts 0: the span read a clock that does not move", track, ev.Name)
		}
	}
	if seen["offload"] == 0 || seen["driver/rank0"] == 0 {
		t.Fatalf("trace has no offload or driver/rank0 events: %v", seen)
	}
}
