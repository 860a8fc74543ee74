package main

import (
	"time"

	"repro/internal/offload"
	"repro/internal/telemetry"
)

// procTimer times every offload.Backend.Process call of the backends it
// wraps on the host clock. With a span log it also records each call as
// an "offload.process" span.
type procTimer struct {
	durs  []int64 // host ns per call, in call order
	spans *spanLog
}

// wrap returns b with Process timed. The wrapper forwards every method
// unchanged, including offload.Ingestor when b has it, so a wrapped run
// simulates exactly what an unwrapped one does.
func (t *procTimer) wrap(b offload.Backend) offload.Backend {
	tb := &timedBackend{Backend: b, t: t}
	if ing, ok := b.(offload.Ingestor); ok {
		return &timedIngestor{timedBackend: tb, Ingestor: ing}
	}
	return tb
}

type timedBackend struct {
	offload.Backend
	t *procTimer
}

func (b *timedBackend) Process(u offload.ULP, coreID int, conn *offload.Conn, payloadLen int) (offload.Result, error) {
	start := time.Now()
	res, err := b.Backend.Process(u, coreID, conn, payloadLen)
	d := time.Since(start)
	b.t.durs = append(b.t.durs, d.Nanoseconds())
	b.t.spans.process(conn.ID, start, d)
	return res, err
}

// timedIngestor is a timedBackend over a peer-DMA capable backend.
type timedIngestor struct {
	*timedBackend
	offload.Ingestor
}

// spanLog records host-time spans at the boundaries the benchmark owns
// into a telemetry.Tracer, converting wall nanoseconds since origin to
// the tracer's picoseconds (× 1000). Written with WritePerfetto, the
// trace loads in `tracestat -trace`, whose profile tree then gives the
// self time of each boundary.
type spanLog struct {
	tr     *telemetry.Tracer
	bench  telemetry.TrackID // setup, engine.warmup, engine.measure, offload.process
	conns  telemetry.TrackID // offload.process again, as async spans keyed by connection
	origin time.Time
}

func newSpanLog(origin time.Time) *spanLog {
	tr := telemetry.New()
	return &spanLog{tr: tr, bench: tr.Track("bench"), conns: tr.Track("offload"), origin: origin}
}

func (l *spanLog) ps(t time.Time) int64 { return t.Sub(l.origin).Nanoseconds() * 1000 }

// span records [start, start+d) on the bench track. Nil logs record
// nothing.
func (l *spanLog) span(name string, start time.Time, d time.Duration) {
	if l != nil {
		l.tr.Span(l.bench, name, l.ps(start), d.Nanoseconds()*1000)
	}
}

// process records one Process call: nested inside the engine span on the
// bench track, and as an async span whose id is the connection.
func (l *spanLog) process(connID int, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.span("offload.process", start, d)
	at := l.ps(start)
	l.tr.AsyncBegin(l.conns, "offload.process", uint64(connID), at)
	l.tr.AsyncEnd(l.conns, "offload.process", uint64(connID), at+d.Nanoseconds()*1000)
}
