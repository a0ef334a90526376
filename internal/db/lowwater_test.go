package db

import (
	"testing"

	"repro/internal/dbsm"
	"repro/internal/sim"
	"repro/internal/xgroup"
)

// TestCertInfoLowWaterInvariants drives one replicated server through a
// randomized mix of local submissions, remote installs that preempt local
// lock holders, user aborts, rejections, retries and certification
// outcomes, with each certification message built one step after the
// transaction enters termination (as the replica's terminate job does).
// Every message — and every per-group part xgroup.Split makes of it — must
// carry Site == TIDSite(TID) and LowWater <= LastCommitted, and the marks
// must be safe to prune by: no message sent later carries a snapshot below
// any mark sent earlier, and the marks never decrease.
func TestCertInfoLowWaterInvariants(t *testing.T) {
	k, s := newTestServer(t, 1)
	rng := sim.NewRNG(5)
	const site = 1
	var (
		sent     []*dbsm.TxnCert
		inflight []*Txn // terminated, message sent, outcome pending
		seq      uint64
		local    uint32
	)
	s.SetTerminator(func(tx *Txn) {
		k.Schedule(sim.Millisecond, func() {
			if rng.Intn(20) == 0 {
				// The bounded transmit queue refused it: never sent.
				s.RejectPending(tx.TID)
				return
			}
			sent = append(sent, tx.CertInfo())
			inflight = append(inflight, tx)
		})
	})
	item := func() dbsm.TupleID { return dbsm.MakeTupleID(uint16(1+rng.Intn(3)), uint64(rng.Intn(12))) }
	var retry []*Txn
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(10); {
		case r < 4:
			var tx *Txn
			if len(retry) > 0 && rng.Intn(3) == 0 {
				tx, retry = retry[0], retry[1:]
				tx.ResetForRetry()
			} else {
				local++
				tx = simpleTxn(dbsm.MakeTID(site, local), "w", []dbsm.TupleID{item(), item()}, sim.Millisecond)
				tx.ReadOnly = rng.Intn(8) == 0
				tx.UserAbort = rng.Intn(20) == 0
				tx.Done = func(tx *Txn, o Outcome) {
					if o == Rejected {
						retry = append(retry, tx)
					}
				}
			}
			s.Submit(tx)
		case r < 7:
			seq++
			s.ApplyRemote(&dbsm.TxnCert{TID: dbsm.MakeTID(2, uint32(seq)), WriteSet: dbsm.NewItemSet(item())}, seq)
		default:
			// Outcomes arrive in send order, as total-order delivery
			// hands them back.
			if len(inflight) > 0 {
				tx := inflight[0]
				inflight = inflight[1:]
				commit := rng.Intn(4) != 0
				if commit {
					seq++
				}
				s.ResolveLocal(tx.TID, commit, seq)
			}
		}
		if err := k.RunUntil(k.Now() + sim.Time(rng.Intn(3))*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if len(sent) < 500 {
		t.Fatalf("only %d messages sent: the mix is degenerate", len(sent))
	}
	classify := func(id dbsm.TupleID) int { return int(id.Table()) }
	below, prevMark := 0, uint64(0)
	for i, c := range sent {
		parts := xgroup.Split(c, classify, 1)
		for _, p := range parts {
			pc := &p.Cert
			if pc.Site != dbsm.TIDSite(pc.TID) || pc.LowWater > pc.LastCommitted {
				t.Fatalf("message %d part %d: Site %d (TID site %d), LowWater %d, LastCommitted %d",
					i, p.Group, pc.Site, dbsm.TIDSite(pc.TID), pc.LowWater, pc.LastCommitted)
			}
		}
		if c.LowWater < prevMark {
			t.Fatalf("message %d: mark fell from %d to %d", i, prevMark, c.LowWater)
		}
		if c.LastCommitted < prevMark {
			t.Fatalf("message %d: snapshot %d below the mark %d an earlier message promised",
				i, c.LastCommitted, prevMark)
		}
		if c.LowWater < c.LastCommitted {
			below++
		}
		prevMark = c.LowWater
	}
	if below == 0 {
		t.Fatal("no message ever carried a mark below its own snapshot: the test is vacuous")
	}
}

// TestLowWaterTracksOldestLiveSnapshot pins LowWater's bookkeeping: the
// smallest snapshot among live update transactions, lastApplied when none
// is live, read-only transactions ignored, and a preempted transaction
// still counted until its own certification outcome arrives.
func TestLowWaterTracksOldestLiveSnapshot(t *testing.T) {
	k, s := newTestServer(t, 1)
	s.SetTerminator(func(*Txn) {})
	if s.LowWater() != 0 {
		t.Fatalf("idle server: LowWater %d, want 0", s.LowWater())
	}
	a := simpleTxn(dbsm.MakeTID(1, 1), "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 1)}, sim.Millisecond)
	s.Submit(a) // snapshot 0
	s.NoteApplied(5)
	ro := &Txn{TID: dbsm.MakeTID(1, 2), Class: "ro", ReadOnly: true, CommitCPU: sim.Millisecond}
	s.Submit(ro) // read-only: never sends, not counted
	b := simpleTxn(dbsm.MakeTID(1, 3), "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 3)}, sim.Millisecond)
	s.Submit(b) // snapshot 5
	if got := s.LowWater(); got != 0 {
		t.Fatalf("with snapshots 0 and 5 live: LowWater %d, want 0", got)
	}
	if err := k.RunUntil(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// A remote install preempts a while it awaits certification: a is
	// finished locally, but its message may still be in flight.
	s.ApplyRemote(&dbsm.TxnCert{TID: dbsm.MakeTID(2, 1), WriteSet: a.WriteSet}, 6)
	if err := k.RunUntil(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !a.finished || s.pendingCert[a.TID] != a {
		t.Fatal("setup: a was not preempted while awaiting certification")
	}
	if got := s.LowWater(); got != 0 {
		t.Fatalf("preempted a still awaits its outcome: LowWater %d, want 0", got)
	}
	s.ResolveLocal(a.TID, false, 0)
	if got := s.LowWater(); got != 5 {
		t.Fatalf("after a resolved: LowWater %d, want b's snapshot 5", got)
	}
	s.ResolveLocal(b.TID, true, 7)
	if err := k.RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := s.LowWater(); got != 7 {
		t.Fatalf("nothing live: LowWater %d, want lastApplied 7", got)
	}
}
