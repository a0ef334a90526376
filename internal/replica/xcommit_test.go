package replica

import (
	"strconv"
	"testing"

	"repro/internal/dbsm"
	"repro/internal/gcs"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
	"repro/internal/xgroup"
)

// xgroupOf splits tuples between two groups by row parity: even rows belong
// to group 1, odd rows to group 2.
func xgroupOf(id dbsm.TupleID) int { return int(id.Row()%2) + 1 }

// buildXmgr builds a six-site cluster in group mode (two groups of three)
// and returns site 1's cross-group manager. The kernel is never run: the
// tests drive stream deliveries directly, and the sends they trigger stay
// queued.
func buildXmgr(tb testing.TB) *xmgr {
	tb.Helper()
	_, sites := buildClusterOpts(tb, 6, Options{
		Group: 1, GroupCount: 2, SitesPerGroup: 3, GroupOf: xgroupOf,
	})
	return sites[0].rep.x
}

// refVeto is the veto scan as it stood before the active-reservation index:
// a full walk of pending. It returns the verdict and the item count veto
// charges (0 when nothing is reserved, as veto then charges nothing).
func refVeto(x *xmgr, t *dbsm.TxnCert) (hit bool, charge int) {
	reserved := 0
	for _, e := range x.pending {
		if e.reserved() && e.part != nil {
			reserved++
		}
	}
	for _, e := range x.pending {
		if !e.reserved() || e.part == nil {
			continue
		}
		p := e.part
		if t.WriteSet.Intersects(p.WriteSet) || t.WriteSet.Intersects(p.ReadSet) ||
			t.ReadSet.Intersects(p.WriteSet) {
			hit = true
		}
	}
	return hit, reserved * (len(t.ReadSet) + len(t.WriteSet))
}

// refConflicts is the conflicts scan before the index: a full walk of
// pending.
func refConflicts(x *xmgr, tid uint64, p *dbsm.TxnCert) bool {
	for _, e := range x.pending {
		if e.tid == tid || !e.reserved() || e.part == nil {
			continue
		}
		o := e.part
		if p.WriteSet.Intersects(o.WriteSet) || p.WriteSet.Intersects(o.ReadSet) ||
			p.ReadSet.Intersects(o.WriteSet) {
			return true
		}
	}
	return false
}

// groupSet draws up to n tuples of group g from a small row space, so
// reservations collide often.
func groupSet(rng *sim.RNG, n, g int) dbsm.ItemSet {
	ids := make([]dbsm.TupleID, rng.Intn(n+1))
	for i := range ids {
		ids[i] = dbsm.MakeTupleID(uint16(1+rng.Intn(2)), uint64(2*rng.Intn(12)+g-1))
	}
	return dbsm.NewItemSet(ids...)
}

// TestXmgrActiveIndexMatchesFullScan drives site 1's stream deliveries
// through a seeded random sequence — commit and abort votes, conflicting
// parts, prepares without a group-1 part, duplicate prepares and decides,
// coordinator handovers — and after every step checks veto and conflicts,
// verdict and charge, against the full scan over pending they replaced.
func TestXmgrActiveIndexMatchesFullScan(t *testing.T) {
	x := buildXmgr(t)
	charged := 0
	x.r.cert.Charge = func(items int) { charged += items }
	rng := sim.NewRNG(14)

	var (
		preps     []*xgroup.Prepare
		open      []uint64 // voted, undecided
		decided   []uint64
		local     uint32
		nilParts  int
		conflicts int
		aborts    int
		dupPreps  int
		dupDecs   int
		hits      int
		misses    int
	)
	check := func(step int) {
		t.Helper()
		want := 0
		for _, e := range x.pending {
			if e.reserved() && e.part != nil {
				want++
			}
		}
		seen := make(map[*xtxn]bool, len(x.active))
		for _, e := range x.active {
			if !e.reserved() || e.part == nil || seen[e] {
				t.Fatalf("step %d: active holds tid %d (reserved=%v part=%v dup=%v)",
					step, e.tid, e.reserved(), e.part != nil, seen[e])
			}
			seen[e] = true
		}
		if len(x.active) != want {
			t.Fatalf("step %d: active has %d entries, pending reserves %d", step, len(x.active), want)
		}
		for range 4 {
			probe := &dbsm.TxnCert{ReadSet: groupSet(rng, 6, 1), WriteSet: groupSet(rng, 3, 1)}
			wantHit, wantCharge := refVeto(x, probe)
			charged = 0
			if got := x.veto(probe); got != wantHit || charged != wantCharge {
				t.Fatalf("step %d: veto = %v charging %d, full scan = %v charging %d",
					step, got, charged, wantHit, wantCharge)
			}
			if wantHit {
				hits++
			} else {
				misses++
			}
			tid := dbsm.MakeTID(9, uint32(rng.Intn(1000)))
			if len(x.active) > 0 && rng.Intn(2) == 0 {
				tid = x.active[rng.Intn(len(x.active))].tid
			}
			if got, want := x.conflicts(tid, probe), refConflicts(x, tid, probe); got != want {
				t.Fatalf("step %d: conflicts(%d) = %v, full scan = %v", step, tid, got, want)
			}
		}
	}
	decide := func(i int) {
		tid := open[i]
		open[i] = open[len(open)-1]
		open = open[:len(open)-1]
		e := x.pending[tid]
		x.decideDelivered(tid, e.vote && rng.Intn(3) > 0)
		decided = append(decided, tid)
	}

	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(20); {
		case r < 8: // a fresh prepare
			local++
			home := 1 + rng.Intn(2)
			site := 2 + rng.Intn(2) // home-1 coordinators: sites 2 and 3
			if home == 2 {
				site = 4 + rng.Intn(3)
			}
			p := &xgroup.Prepare{
				TID:         dbsm.MakeTID(dbsm.SiteID(site), local),
				Coordinator: runtimeapi.NodeID(site),
				HomeGroup:   home,
			}
			for g := 1; g <= 2; g++ {
				if g == 1 && home == 2 && rng.Intn(6) == 0 {
					nilParts++ // no rows in this group
					continue
				}
				p.Parts = append(p.Parts, xgroup.Part{Group: g, Cert: dbsm.TxnCert{
					TID:           p.TID,
					ReadSet:       groupSet(rng, 4, g),
					WriteSet:      groupSet(rng, 3, g),
					LastCommitted: x.r.cert.Seq() - uint64(rng.Intn(int(min(x.r.cert.Seq(), 3))+1)),
				}})
			}
			if pt := p.PartFor(1); pt != nil && refConflicts(x, p.TID, &pt.Cert) {
				conflicts++
			}
			x.prepareDelivered(p)
			e := x.pending[p.TID]
			if !e.vote {
				aborts++
			}
			preps = append(preps, p)
			open = append(open, p.TID)
		case r < 10 && len(preps) > 0: // duplicate prepare injection
			dupPreps++
			x.prepareDelivered(preps[rng.Intn(len(preps))])
		case r < 17 && len(open) > 0:
			decide(rng.Intn(len(open)))
		case r < 19 && len(decided) > 0: // duplicate decide injection
			dupDecs++
			tid := decided[rng.Intn(len(decided))]
			x.decideDelivered(tid, x.pending[tid].commit)
		case r == 19: // the view drops one home-1 coordinator: handover
			gone := runtimeapi.NodeID(2 + rng.Intn(2))
			x.onViewChange(gcs.View{ID: uint32(step), Members: []gcs.NodeID{1, 5 - gone}})
		}
		check(step)
	}
	for len(open) > 0 {
		decide(0)
		check(-1)
	}
	if len(x.active) != 0 {
		t.Fatalf("every decision delivered, yet %d reservations stay active", len(x.active))
	}
	if nilParts == 0 || conflicts == 0 || aborts == 0 || dupPreps == 0 || dupDecs == 0 ||
		hits == 0 || misses == 0 || x.r.stats.XHandovers == 0 {
		t.Fatalf("sequence misses a case: nil parts %d, conflicting parts %d, abort votes %d, "+
			"duplicate prepares %d, duplicate decides %d, veto hits %d, misses %d, handovers %d",
			nilParts, conflicts, aborts, dupPreps, dupDecs, hits, misses, x.r.stats.XHandovers)
	}
}

// vetoFixture fills site 1's pending with resolved commit and abort
// entries, then reserves `active` group-1 parts, all through stream
// deliveries. The returned probe conflicts with no reservation, so veto
// walks every one of them.
func vetoFixture(tb testing.TB, resolved, active int) (*xmgr, *dbsm.TxnCert) {
	tb.Helper()
	x := buildXmgr(tb)
	rows := func(base, n int) dbsm.ItemSet {
		ids := make([]dbsm.TupleID, n)
		for i := range ids {
			ids[i] = dbsm.MakeTupleID(1, uint64(2*(base+i)))
		}
		return dbsm.NewItemSet(ids...)
	}
	prepare := func(local, base int) uint64 {
		tid := dbsm.MakeTID(4, uint32(local))
		x.prepareDelivered(&xgroup.Prepare{TID: tid, Coordinator: 4, HomeGroup: 2, Parts: []xgroup.Part{
			{Group: 1, Cert: dbsm.TxnCert{TID: tid, ReadSet: rows(base, 4), WriteSet: rows(base, 2)}},
		}})
		return tid
	}
	for i := range resolved {
		x.decideDelivered(prepare(i, 8*i), i%2 == 0)
	}
	for i := range active {
		prepare(resolved+i, 8*(resolved+i))
	}
	probe := &dbsm.TxnCert{ReadSet: rows(1<<20, 10), WriteSet: rows(1<<20, 4)}
	if hit, charge := refVeto(x, probe); hit || charge != active*14 {
		tb.Fatalf("fixture: probe hit=%v charge=%d, want a miss over %d reservations", hit, charge, active)
	}
	return x, probe
}

var vetoSink bool

// BenchmarkXmgrVeto measures one veto check against 4 live reservations
// while pending also holds 0, 1,000 or 10,000 resolved entries, the
// history a long run accumulates: ns/op must not grow with it.
func BenchmarkXmgrVeto(b *testing.B) {
	for _, resolved := range []int{0, 1000, 10000} {
		b.Run("resolved-"+strconv.Itoa(resolved), func(b *testing.B) {
			x, probe := vetoFixture(b, resolved, 4)
			b.ReportAllocs()
			for b.Loop() {
				vetoSink = x.veto(probe)
			}
		})
	}
}

// TestXmgrVetoAllocFree pins veto, which runs inside every certification
// in group mode, at zero allocations.
func TestXmgrVetoAllocFree(t *testing.T) {
	x, probe := vetoFixture(t, 100, 4)
	if n := testing.AllocsPerRun(200, func() { vetoSink = x.veto(probe) }); n != 0 {
		t.Fatalf("veto allocates %.1f times per call, want 0", n)
	}
}
