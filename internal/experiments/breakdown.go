package experiments

import (
	"context"

	"repro/internal/corpus"
	"repro/internal/runner"
	"repro/internal/server"
)

// BreakdownRow is one placement's per-stage latency breakdown: where a
// measured request's time goes across the server pipeline (parse, page
// cache copy, ULP processing, TX CPU, wire serialization). SharePct is
// each stage's fraction of the summed stage time, in percent.
type BreakdownRow struct {
	Placement Placement
	Metrics   server.Metrics
	SharePct  [server.NumStages]float64
}

// FigBreakdown measures the per-stage latency breakdown for every
// placement serving mode/msgSize at scale sc. It is the table behind
// `-fig breakdown`: the SmartDIMM rows should show the copy stage
// vanish (inline source, Benefit B2) and the ULP stage shrink to
// doorbell+descriptor costs, while CPU rows are ULP-dominated.
func FigBreakdown(pool *runner.Pool, sc Scale, mode server.Mode, msgSize int) ([]BreakdownRow, error) {
	placements := []Placement{PlaceCPU, PlaceSmartNIC, PlaceQAT, PlaceSmartDIMM}
	type result struct {
		row  BreakdownRow
		skip bool
	}
	results, err := runner.Map(context.Background(), pool, placements,
		func(_ context.Context, place Placement, _ int) (result, error) {
			sys, err := newSystem(sc, place)
			if err != nil {
				return result{}, err
			}
			b := backendFor(place, sys)
			if !b.Supports(mode2ulp(mode)) {
				return result{skip: true}, nil
			}
			m, err := server.RunClosedLoop(server.Config{
				Sys: sys, Backend: b, Mode: mode, Workers: sc.Workers,
				MsgSize: msgSize, Connections: sc.Connections,
				FileKind: corpus.HTML, Seed: 5,
			}, sc.WarmupPs, sc.MeasurePs)
			if err != nil {
				return result{}, err
			}
			row := BreakdownRow{Placement: place, Metrics: m}
			var total int64
			for _, ps := range m.StagePs {
				total += ps
			}
			if total > 0 {
				for i, ps := range m.StagePs {
					row.SharePct[i] = 100 * float64(ps) / float64(total)
				}
			}
			return result{row: row}, nil
		})
	if err != nil {
		return nil, err
	}
	var out []BreakdownRow
	for _, r := range results {
		if !r.skip {
			out = append(out, r.row)
		}
	}
	return out, nil
}
