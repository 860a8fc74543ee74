package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
)

// CritPathRow is one placement's critical-path attribution: for every
// measured request, which stage blocked its latency window, aggregated
// into per-stage shares. It is the trace-derived counterpart of
// FigBreakdown's accounting-derived table — the same Fig. 13-style
// argument, but reconstructed purely from the Perfetto event stream, so
// it also validates that the instrumentation tells the same story as
// the server's internal counters. On the SmartDIMM placement the copy
// stage never appears (inline source: no page-cache copy spans exist),
// reproducing the paper's "copy vanishes" claim from the trace alone.
type CritPathRow struct {
	Placement Placement
	Requests  int
	P99Ps     int64
	Dominant  string // stage that blocked the most requests
	// Stages is the full blocking table (share of summed blocked time),
	// sorted by blocked time descending.
	Stages []profile.StageTotal
}

// ShareOf returns the named stage's share of blocked time in percent
// (0 when the stage never blocked — e.g. "copy" on SmartDIMM).
func (r CritPathRow) ShareOf(stage string) float64 {
	for _, s := range r.Stages {
		if s.Name == stage {
			return s.SharePct
		}
	}
	return 0
}

// specPlacements names each placement as the serving-run spec does.
var specPlacements = map[Placement]string{PlaceCPU: "cpu", PlaceSmartNIC: "smartnic", PlaceQAT: "qat", PlaceSmartDIMM: "smartdimm"}

// CritPathBreakdown runs one traced serving window per placement and
// critical-path-analyzes each trace. Traces never leave the run: each
// placement gets a private Tracer, and the analysis happens in-process
// on the recorded events.
func CritPathBreakdown(pool *runner.Pool, sc Scale, mode server.Mode, msgSize int) ([]CritPathRow, error) {
	var placements []Placement
	for _, place := range []Placement{PlaceCPU, PlaceSmartNIC, PlaceQAT, PlaceSmartDIMM} {
		if backendFor(place, nil).Supports(mode2ulp(mode)) {
			placements = append(placements, place)
		}
	}
	ulp := map[server.Mode]string{server.PlainHTTP: "none", server.HTTPSMode: "tls", server.CompressedHTTP: "compression"}[mode]
	return runner.Map(context.Background(), pool, placements,
		func(_ context.Context, place Placement, _ int) (CritPathRow, error) {
			rig, err := profile.Build(profile.BenchScenario{
				Placement: specPlacements[place], ULP: ulp,
				Msg: msgSize, Conns: sc.Connections, Workers: sc.Workers, Seed: 5,
				LLCBytes: sc.LLCBytes, LLCWays: sc.LLCWays, Corpus: "html", Trace: true,
			})
			if err != nil {
				return CritPathRow{}, err
			}
			if _, err := rig.Run(sc.WarmupPs, sc.MeasurePs); err != nil {
				return CritPathRow{}, err
			}
			cp := profile.AnalyzeTracer(rig.Tracer, profile.Options{FromPs: sc.WarmupPs})
			row := CritPathRow{Placement: place, Requests: len(cp.Requests),
				P99Ps: cp.PercentileLatencyPs(99), Stages: cp.Stages}
			best := 0
			for _, s := range cp.Stages {
				if s.Dominant > best {
					best, row.Dominant = s.Dominant, s.Name
				}
			}
			return row, nil
		})
}

// WriteCritPathTable renders the per-placement stage-share table the
// `figures -fig critpath` command prints: one row per placement, the
// server pipeline stages plus the uncovered wait share, each as a
// percentage of that placement's total blocked time.
func WriteCritPathTable(w io.Writer, rows []CritPathRow) error {
	cols := append(append([]string{}, server.StageNames[:]...), profile.WaitStage)
	if _, err := fmt.Fprintf(w, "%-24s %8s %10s", "placement", "reqs", "p99(us)"); err != nil {
		return err
	}
	for _, c := range cols {
		if _, err := fmt.Fprintf(w, " %7s%%", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  dominant\n"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-24s %8d %10.1f", r.Placement, r.Requests,
			float64(r.P99Ps)/float64(sim.Us)); err != nil {
			return err
		}
		for _, c := range cols {
			if _, err := fmt.Fprintf(w, " %8.1f", r.ShareOf(c)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "  %s\n", r.Dominant); err != nil {
			return err
		}
	}
	return nil
}
