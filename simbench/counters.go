package main

import "repro/internal/sim"

// counters are per-layer work counts keyed "<layer>.<count>", read from
// the layers' public Stats() accessors.
type counters map[string]uint64

// readCounters sums the counters of every layer of the systems. The
// engine count is each system's serial Engine; sharded callers add the
// ShardedEngine's own counts on top.
func readCounters(systems []*sim.System) counters {
	c := counters{"sim.epochs": 0, "sim.cross_shard_msgs": 0}
	for _, sys := range systems {
		c["sim.events"] += sys.Engine.Processed()
		for _, d := range sys.Devs {
			st := d.Stats()
			c["core.registrations"] += st.Registrations
			c["core.dsa_lines"] += st.DSALinesFed
			c["core.self_recycles"] += st.SelfRecycles
			c["core.pages_recycled"] += st.PagesRecycled
			c["core.auth_failures"] += st.AuthFailures
			c["core.dsa_errors"] += st.DSAErrors
			c["core.record_aborts"] += st.RecordAborts
			tt := d.TranslationStats()
			c["cuckoo.inserts"] += tt.Inserts
			c["cuckoo.displacements"] += tt.Displacements
		}
		for _, d := range sys.Drivers {
			c["core.force_recycles"] += d.Stats().ForceRecycleCalls
		}
		llc := sys.Hier.LLC.Stats()
		for i := range llc.Accesses {
			c["cache.llc_accesses"] += llc.Accesses[i]
			c["cache.llc_misses"] += llc.Misses[i]
		}
		c["cache.writebacks"] += llc.Writebacks
		for _, ctl := range sys.Ctls {
			st := ctl.Stats()
			c["memctrl.reads"] += st.Reads
			c["memctrl.writes"] += st.Writes
			c["memctrl.drains"] += st.Drains
			c["memctrl.row_hits"] += st.RowHits
			c["memctrl.row_misses"] += st.RowMisses + st.RowConflict
		}
	}
	return c
}

// since returns the counts accrued after base was read.
func (c counters) since(base counters) counters {
	d := counters{}
	for k, n := range c {
		d[k] = n - base[k]
	}
	return d
}

// addTo records the counters in an outcome vector.
func (c counters) addTo(v map[string]float64) {
	for k, n := range c {
		v[k] = float64(n)
	}
}
