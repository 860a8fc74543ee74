// Package chaos drives randomized, seed-reproducible fault schedules
// across every layer of the simulator at once — DRAM ALERT_N, memory
// controller CRC retries, DSA faults, translation-table insert failures
// — while running real offload traffic, and checks the invariants that
// must survive any fault the injector can express:
//
//   - round trips stay bit-exact: a TLS record that Process encrypted
//     (or a page the Deflate DSA compressed) must decrypt/inflate back
//     to the staged payload, whether it took the DSA path or any rung
//     of the degradation ladder (Force-Recycle, CPU fallback);
//   - failures are typed: the only errors an operation may surface are
//     the degradable set the offload layer recovers from
//     (core.ErrNoScratchpad, core.ErrTranslationInsert, core.ErrDSAFault,
//     memctrl.ErrAlertRetryExhausted);
//   - resources conserve: once injection is disarmed and every touched
//     destination chunk is drained (USE, then a buffer-reuse
//     rewrite+flush), the Scratchpad and
//     Config Memory free lists return to their configured sizes, the
//     Translation Table is empty, no record is in flight, and the event
//     engine holds no leaked events;
//   - schedules replay: the same seed reproduces the identical canonical
//     report (fault trace, counters and violations included).
//
// Run, RunFleet and RunRDMA share one harness on a deliberately tiny
// device (8 Scratchpad / 8 Config pages), so multi-record operations
// exercise Force-Recycle and genuine exhaustion, not just the injected
// faults.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/aesgcm"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/deflate"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/memctrl"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Message capacities of the per-scenario connections: two records per
// operation keeps multi-chunk pressure on the tiny scratchpad.
const (
	tlsMsg  = 2 * offload.MaxTLSPayload
	compMsg = 2 * core.MaxCompressInput
)

// tinyDevice is the SmartDIMM every rank of a harness system gets.
var tinyDevice = core.DeviceConfig{
	Geometry:         dram.SmallGeometry(),
	ScratchpadPages:  8,
	ConfigPages:      8,
	DSALatencyCycles: 32,
	MMIOPages:        1,
}

// Report summarizes one tiny-device chaos soak (Run, RunFleet or
// RunRDMA); counters a soak does not drive stay zero. Violations lists
// every invariant breach; an empty list means the soak survived.
type Report struct {
	Seed         int64
	Ops, Devices int
	Policy       string // fleet placement policy ("" for Run)
	// Tolerated counts operations that failed with a degradable error
	// (the typed set the software stack recovers from) — expected under
	// injection, not a violation.
	Tolerated int
	// Consults/Fired are the injector's totals across all sites.
	Consults, Fired int64
	// PrimaryOps/FallbackOps are per-chunk outcomes from the backend's
	// degradation counters.
	PrimaryOps, FallbackOps uint64
	// Trips/Readmits/Migrations/Sheds/SoftOps are the fleet's reactions.
	Trips, Readmits, Migrations, Sheds, SoftOps uint64
	// NIC counters after the final drain.
	Posted, Completed, Failed    uint64
	DoorbellsLost, RNRNaks       uint64
	StaleRetries, BoundsRefusals uint64
	PeerBytes                    uint64
	Violations                   []string
	// Trace is the canonical fault trace, NICTrace the NIC-op trace and
	// Placement the fleet's placement trace.
	Trace, NICTrace, Placement string
	// Canonical renders everything above; the same seed must reproduce
	// it byte for byte.
	Canonical string
}

func (r *Report) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d ops=%d devices=%d policy=%s tolerated=%d\n", r.Seed, r.Ops, r.Devices, r.Policy, r.Tolerated)
	fmt.Fprintf(&b, "faults consults=%d fired=%d\n", r.Consults, r.Fired)
	fmt.Fprintf(&b, "chunks primary=%d fallback=%d\n", r.PrimaryOps, r.FallbackOps)
	fmt.Fprintf(&b, "fleet trips=%d readmits=%d migrations=%d sheds=%d soft=%d\n",
		r.Trips, r.Readmits, r.Migrations, r.Sheds, r.SoftOps)
	fmt.Fprintf(&b, "nic posted=%d completed=%d failed=%d lost=%d naks=%d stale=%d bounds=%d peer_bytes=%d\n",
		r.Posted, r.Completed, r.Failed, r.DoorbellsLost, r.RNRNaks, r.StaleRetries, r.BoundsRefusals, r.PeerBytes)
	fmt.Fprintf(&b, "-- fault trace --\n%s-- nic trace --\n%s-- placement trace --\n%s\n", r.Trace, r.NICTrace, r.Placement)
	writeViolations(&b, r.Violations)
	return b.String()
}

// writeViolations appends one line per violation to a canonical report.
func writeViolations(b *strings.Builder, violations []string) {
	for _, v := range violations {
		fmt.Fprintf(b, "VIOLATION: %s\n", v)
	}
}

// tolerable mirrors the offload layer's degradable set: the only
// errors chaos operations are allowed to surface.
func tolerable(err error) bool {
	return errors.Is(err, core.ErrNoScratchpad) ||
		errors.Is(err, core.ErrTranslationInsert) ||
		errors.Is(err, core.ErrDSAFault) ||
		errors.Is(err, memctrl.ErrAlertRetryExhausted)
}

// tlsAAD rebuilds the 5-byte TLS record header the backends use as AAD.
func tlsAAD(n int) []byte {
	m := n + aesgcm.TagSize
	return []byte{0x17, 0x03, 0x03, byte(m >> 8), byte(m)}
}

// chunk is one destination region an operation may have registered,
// tracked relative to its connection so migrations (which rewrite the
// connection's buffer addresses) can't strand the drain.
type chunk struct {
	conn *offload.Conn
	off  uint64
	size int
}

// harness is the rig Run, RunFleet and RunRDMA share: the seeded RNG
// and injector, a system of tiny devices, the payload corpus, and the
// report the soak fills.
type harness struct {
	rng     *rand.Rand
	inj     *fault.Injector
	sys     *sim.System
	base    []byte
	rep     *Report
	cleanup []chunk
}

// newHarness seeds the RNG and injector from rep.Seed, lets arm install
// the fault plan from that RNG, and builds ranks tiny devices on data
// path dp, traced to tr (nil = off).
func newHarness(rep *Report, ranks int, dp sim.DataPath, tr *telemetry.Tracer, arm func(*rand.Rand, *fault.Injector)) (*harness, error) {
	rng := rand.New(rand.NewSource(rep.Seed))
	inj := fault.New(rep.Seed)
	arm(rng, inj)
	dc := tinyDevice
	sys, err := sim.NewSystem(sim.SystemConfig{
		SmartDIMMRanks: ranks,
		LLCBytes:       4 << 20,
		LLCWays:        8,
		DeviceConfig:   &dc,
		DataPath:       dp,
		Faults:         inj,
		Tracer:         tr,
	})
	if err != nil {
		return nil, err
	}
	rep.Devices = ranks
	return &harness{rng: rng, inj: inj, sys: sys, base: corpus.Generate(corpus.HTML, 96<<10, rep.Seed), rep: rep}, nil
}

func (h *harness) violate(format string, args ...any) {
	h.rep.Violations = append(h.rep.Violations, fmt.Sprintf(format, args...))
}

// tolerate classifies an operation failure: typed degradable errors are
// tolerated, anything else is a violation.
func (h *harness) tolerate(label string, err error) {
	if tolerable(err) {
		h.rep.Tolerated++
	} else {
		h.violate("%s: non-degradable error: %v", label, err)
	}
}

// payload returns a deterministic slice of the corpus.
func (h *harness) payload(n int) []byte {
	off := h.rng.Intn(len(h.base) - n)
	return h.base[off : off+n]
}

// conserved asserts the cross-fleet page invariant: allocated pages over
// every rank driver must equal exactly what the fleet's live connections
// hold, wherever migration has put them.
func (h *harness) conserved(fl *fleet.Fleet, when string) {
	if out, exp := fl.OutstandingPages(), fl.ExpectedPages(); out != exp {
		h.violate("conservation %s: %d pages allocated across ranks, connections should hold %d", when, out, exp)
	}
}

// fleetTotals copies the fleet's reactions into the report.
func (h *harness) fleetTotals(fl *fleet.Fleet) {
	t := fl.Totals()
	h.rep.Trips, h.rep.Readmits = t.Trips, t.Readmits
	h.rep.Migrations, h.rep.Sheds, h.rep.SoftOps = t.Migrations, t.Sheds, t.SoftOps
	h.rep.PrimaryOps, h.rep.FallbackOps = t.Degraded.PrimaryOps, t.Degraded.FallbackOps
	h.rep.Placement = fl.TraceString()
}

// settle quiesces injection, then reclaims every destination chunk any
// operation may have left registered. USE consumes the record the
// normal way; the rewrite+flush models the software reusing the buffer,
// which swap-recycles any line whose early writeback was S7-ignored
// while the DSA was still producing it (such a line's LLC copy is clean,
// so USE's flush alone never writes it back). Chunk addresses resolve
// through the live connection structs, so buffers that migrated between
// ranks are drained where they ended up. With faults disarmed every step
// must succeed, and afterwards every rank's resource pools must be back
// at their configured sizes and the engine must hold no events.
func (h *harness) settle() {
	h.inj.DisarmAll()
	zeros := make([]byte, (offload.MaxTLSPayload+aesgcm.TagSize+63)&^63)
	for _, c := range h.cleanup {
		addr := c.conn.Dst + c.off
		if _, _, err := h.sys.Driver.Use(0, addr, c.size); err != nil {
			h.violate("drain: USE(%#x,%d) after disarm: %v", addr, c.size, err)
		}
		wlen := (c.size + 63) &^ 63 // stays within the chunk's pages
		if _, err := h.sys.Driver.WriteBuffer(0, addr, zeros[:wlen]); err != nil {
			h.violate("drain: rewrite(%#x,%d): %v", addr, wlen, err)
		}
		if _, err := h.sys.Hier.Flush(addr, wlen); err != nil {
			h.violate("drain: flush(%#x,%d): %v", addr, wlen, err)
		}
	}
	for i, dev := range h.sys.Devs {
		if free := dev.ScratchpadFreePages(); free != tinyDevice.ScratchpadPages {
			h.violate("conservation: dev %d: %d/%d scratchpad pages free after drain", i, free, tinyDevice.ScratchpadPages)
		}
		if free := dev.ConfigFreePages(); free != tinyDevice.ConfigPages {
			h.violate("conservation: dev %d: %d/%d config pages free after drain", i, free, tinyDevice.ConfigPages)
		}
		if n := dev.TranslationCount(); n != 0 {
			h.violate("conservation: dev %d: %d translation entries leaked", i, n)
		}
		if n := dev.InFlightRecords(); n != 0 {
			h.violate("conservation: dev %d: %d records still in flight", i, n)
		}
	}
	if n := h.sys.Engine.Pending(); n != 0 {
		h.violate("engine: %d events leaked", n)
	}
	h.rep.Consults, h.rep.Fired = h.inj.Counts()
	h.rep.Trace = h.inj.TraceString()
}

// armSites installs an independent random plan (or none) at every
// injection site, drawn from the scenario RNG. Window plans are
// excluded: direct driver traffic never advances the event clock, so
// time-windowed plans would silently never fire.
func armSites(rng *rand.Rand, inj *fault.Injector) {
	sites := []string{"memctrl.crc", "dram.alert", "core.alert", "core.dsa", "core.ttinsert"}
	for _, site := range sites {
		switch rng.Intn(5) {
		case 0:
			// unarmed: this layer stays on its fault-free path
		case 1:
			inj.Arm(site, fault.Bernoulli{Prob: 0.01 + 0.15*rng.Float64()})
		case 2:
			inj.Arm(site, fault.Periodic{Every: int64(2 + rng.Intn(30)), Offset: int64(rng.Intn(8))})
		case 3:
			inj.Arm(site, fault.OneShot{N: int64(1 + rng.Intn(50))})
		case 4:
			inj.Arm(site, fault.Burst{GE: fault.GEConfig{
				PGoodBad: 0.02 + 0.1*rng.Float64(),
				PBadGood: 0.2,
				LossBad:  0.5 + 0.4*rng.Float64(),
			}})
		}
	}
}

type scenario struct {
	*harness
	off *offload.SmartDIMM

	// tls+tlsShadow share an id and therefore key material: the shadow's
	// NextIV is consumed in lockstep with the operation conn's, giving
	// the verifier the IV sequence without reaching into unexported
	// state. Any failed operation abandons the pair (the conn's sequence
	// number is indeterminate after a partial operation) and allocates a
	// fresh one under a new id.
	tls, tlsShadow *offload.Conn
	comp           *offload.Conn
	nextID         int
}

// Run executes one chaos scenario: ops randomized operations (TLS
// TX/RX, compression TX/RX) against a tiny SmartDIMM under the seeded
// fault schedule, a plain-DIMM read/write phase under dram.alert, then
// the disarm/drain/conservation check. A non-nil tracer records the
// scenario's Perfetto trace (fault instants, driver CompCpy spans,
// device events, controller drains). The returned error reports
// harness construction failures only; invariant breaches land in
// Report.Violations.
func Run(seed int64, ops int, tracer *telemetry.Tracer) (Report, error) {
	rep := Report{Seed: seed, Ops: ops}
	h, err := newHarness(&rep, 1, sim.DataPathHost, tracer, armSites)
	if err != nil {
		return rep, err
	}
	s := &scenario{harness: h, off: &offload.SmartDIMM{Sys: h.sys}}
	if err := s.newTLSPair(); err != nil {
		return rep, err
	}
	if err := s.newComp(); err != nil {
		return rep, err
	}

	for i := 0; i < ops; i++ {
		var err error
		switch s.rng.Intn(4) {
		case 0:
			err = s.opTLSTX()
		case 1:
			err = s.opTLSRX()
		case 2:
			err = s.opCompTX()
		case 3:
			err = s.opCompRX()
		}
		if err != nil {
			return rep, err
		}
	}

	psys, err := s.plainDIMMPhase()
	if err != nil {
		return rep, err
	}
	s.settle()
	if n := psys.Engine.Pending(); n != 0 {
		s.violate("engine: %d events leaked on plain-DIMM system", n)
	}
	rep.PrimaryOps = s.off.Degraded.PrimaryOps
	rep.FallbackOps = s.off.Degraded.FallbackOps
	rep.Canonical = rep.canonical()
	return rep, nil
}

// opFailed classifies an operation failure and renews the affected
// connection so later operations start from known sequence state.
func (s *scenario) opFailed(label string, err error, renew func() error) error {
	s.tolerate(label, err)
	return renew()
}

func (s *scenario) newTLSPair() error {
	id := s.nextID
	s.nextID++
	conn, err := s.off.NewConn(offload.TLS, id, tlsMsg)
	if err != nil {
		return err
	}
	shadow, err := s.off.NewConn(offload.TLS, id, tlsMsg)
	if err != nil {
		return err
	}
	s.tls, s.tlsShadow = conn, shadow
	return nil
}

func (s *scenario) newComp() error {
	id := s.nextID
	s.nextID++
	conn, err := s.off.NewConn(offload.Compression, id, compMsg)
	if err != nil {
		return err
	}
	s.comp = conn
	return nil
}

// opTLSTX encrypts a message through Process and verifies every record
// decrypts back to the staged payload with the mirrored IV sequence.
func (s *scenario) opTLSTX() error {
	l := offload.LayoutFor(offload.TLS)
	n := 1 + s.rng.Intn(tlsMsg)
	payload := s.payload(n)
	chunks := l.Chunks(n)
	for k, cn := range chunks {
		s.cleanup = append(s.cleanup, chunk{s.tls, uint64(k * l.DstStride), cn + aesgcm.TagSize})
	}
	if err := offload.StagePayloadDMA(s.sys, s.tls, payload); err != nil {
		return s.opFailed("tls-tx stage", err, s.newTLSPair)
	}
	if _, err := s.off.Process(offload.TLS, 0, s.tls, n); err != nil {
		return s.opFailed("tls-tx process", err, s.newTLSPair)
	}
	g, err := aesgcm.NewGCM(s.tls.Key)
	if err != nil {
		return err
	}
	rest := payload
	for k, cn := range chunks {
		iv := s.tlsShadow.NextIV()
		out, _, err := s.sys.Driver.Use(0, s.tls.Dst+uint64(k*l.DstStride), cn+aesgcm.TagSize)
		if err != nil {
			return s.opFailed("tls-tx use", err, s.newTLSPair)
		}
		pt, oerr := g.Open(nil, iv, out, tlsAAD(cn))
		if oerr != nil {
			s.violate("tls-tx: record %d does not decrypt: %v", k, oerr)
		} else if !bytes.Equal(pt, rest[:cn]) {
			s.violate("tls-tx: record %d round-trip mismatch", k)
		}
		rest = rest[cn:]
	}
	return nil
}

// opTLSRX seals records with the shadow's IV sequence, stages them as
// NIC RX traffic, and decrypts them through the SmartDIMM receive path.
func (s *scenario) opTLSRX() error {
	l := offload.LayoutFor(offload.TLS)
	g, err := aesgcm.NewGCM(s.tls.Key)
	if err != nil {
		return err
	}
	nrec := 1 + s.rng.Intn(2)
	var records [][]byte
	var lens []int
	var want []byte
	for k := 0; k < nrec; k++ {
		cn := 1 + s.rng.Intn(offload.MaxTLSPayload)
		pt := s.payload(cn)
		sealed, err := g.Seal(nil, s.tlsShadow.NextIV(), pt, tlsAAD(cn))
		if err != nil {
			return err
		}
		records = append(records, sealed)
		lens = append(lens, cn)
		want = append(want, pt...)
		s.cleanup = append(s.cleanup, chunk{s.tls, uint64(k * l.DstStride), cn + aesgcm.TagSize})
	}
	if err := offload.StageRXRecordsDMA(s.sys, s.tls, records); err != nil {
		return s.opFailed("tls-rx stage", err, s.newTLSPair)
	}
	res, err := s.off.ReceiveTLS(0, s.tls, lens)
	if err != nil {
		return s.opFailed("tls-rx receive", err, s.newTLSPair)
	}
	if !res.AuthOK {
		s.violate("tls-rx: authentication failed on valid records")
	}
	if !bytes.Equal(res.Payload, want) {
		s.violate("tls-rx: payload mismatch")
	}
	return nil
}

// opCompTX compresses a message through Process and verifies every
// destination page decodes back to its source chunk.
func (s *scenario) opCompTX() error {
	l := offload.LayoutFor(offload.Compression)
	n := 1 + s.rng.Intn(compMsg)
	payload := s.payload(n)
	chunks := l.Chunks(n)
	for k := range chunks {
		s.cleanup = append(s.cleanup, chunk{s.comp, uint64(k * l.DstStride), core.PageSize})
	}
	if err := offload.StagePayloadDMA(s.sys, s.comp, payload); err != nil {
		return s.opFailed("comp-tx stage", err, s.newComp)
	}
	if _, err := s.off.Process(offload.Compression, 0, s.comp, n); err != nil {
		return s.opFailed("comp-tx process", err, s.newComp)
	}
	rest := payload
	for k, cn := range chunks {
		out, _, err := s.sys.Driver.Use(0, s.comp.Dst+uint64(k*l.DstStride), core.PageSize)
		if err != nil {
			return s.opFailed("comp-tx use", err, s.newComp)
		}
		orig, derr := core.DecodeCompressedPage(out)
		if derr != nil {
			s.violate("comp-tx: page %d undecodable: %v", k, derr)
		} else if !bytes.Equal(orig, rest[:cn]) {
			s.violate("comp-tx: page %d round-trip mismatch", k)
		}
		rest = rest[cn:]
	}
	return nil
}

// opCompRX stages wire-format compressed pages as RX traffic and
// inflates them through the SmartDIMM receive path.
func (s *scenario) opCompRX() error {
	l := offload.LayoutFor(offload.Compression)
	enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
	nrec := 1 + s.rng.Intn(2)
	var records [][]byte
	var lens []int
	var want [][]byte
	for k := 0; k < nrec; k++ {
		cn := 1 + s.rng.Intn(core.MaxCompressInput)
		data := s.payload(cn)
		page, err := core.EncodeCompressedPage(data, enc)
		if err != nil {
			return err
		}
		plen, err := core.CompressedPayloadLen(page)
		if err != nil {
			return err
		}
		// Stage the full page so stale bytes from earlier operations in
		// the stride cannot alias into this record.
		records = append(records, page)
		lens = append(lens, 4+plen)
		want = append(want, data)
		s.cleanup = append(s.cleanup, chunk{s.comp, uint64(k * l.DstStride), core.PageSize})
	}
	if err := offload.StageRXRecordsDMA(s.sys, s.comp, records); err != nil {
		return s.opFailed("comp-rx stage", err, s.newComp)
	}
	res, err := s.off.ReceiveCompressed(0, s.comp, lens)
	if err != nil {
		return s.opFailed("comp-rx receive", err, s.newComp)
	}
	// Each record inflates into one page-sized slot of the payload.
	for k, data := range want {
		if len(res.Payload) < k*core.PageSize+len(data) {
			s.violate("comp-rx: payload truncated at record %d", k)
			break
		}
		if !bytes.Equal(res.Payload[k*core.PageSize:k*core.PageSize+len(data)], data) {
			s.violate("comp-rx: record %d mismatch", k)
		}
	}
	return nil
}

// plainDIMMPhase exercises the dram.alert site: a plain (non-SmartDIMM)
// channel under injected ALERT_N must still round-trip data bit-exact —
// alerts cost retries, never correctness. The write-back is forced with
// a flush so the reads actually reach DRAM.
func (s *scenario) plainDIMMPhase() (*sim.System, error) {
	psys, err := sim.NewSystem(sim.SystemConfig{
		LLCBytes: 1 << 20,
		LLCWays:  4,
		Faults:   s.inj,
	})
	if err != nil {
		return nil, err
	}
	data := s.payload(2 * dram.PageSize)
	if _, err := psys.WriteBytes(0, 0, data); err != nil {
		s.tolerate("plain-dimm write", err)
		return psys, nil
	}
	if _, err := psys.Hier.Flush(0, len(data)); err != nil {
		s.tolerate("plain-dimm flush", err)
		return psys, nil
	}
	got, _, err := psys.ReadBytes(0, 0, len(data))
	if err != nil {
		s.tolerate("plain-dimm read", err)
		return psys, nil
	}
	if !bytes.Equal(got, data) {
		s.violate("plain-dimm: data corrupted under ALERT_N injection")
	}
	return psys, nil
}
