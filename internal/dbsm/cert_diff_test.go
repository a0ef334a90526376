package dbsm

import (
	"math/rand"
	"testing"
)

// randCert draws one transaction over a small tuple universe (to force
// conflicts), mixing empty read- and write-sets and stale snapshots that
// exercise the pruned-window abort rule. seq is the certifier's current
// commit sequence, from which the snapshot lags.
func randCert(rng *rand.Rand, tid uint64, seq uint64) *TxnCert {
	const tables = 8
	const rowsPerTable = 250
	mkSet := func(maxLen int) ItemSet {
		if rng.Intn(10) == 0 {
			return nil // empty set
		}
		ids := make([]TupleID, rng.Intn(maxLen)+1)
		for j := range ids {
			ids[j] = MakeTupleID(uint16(rng.Intn(tables)+1), uint64(rng.Intn(rowsPerTable)))
		}
		return NewItemSet(ids...)
	}
	// Snapshot lag: usually recent, occasionally far in the past so
	// MaxHistory pruning retroactively aborts it.
	lag := uint64(rng.Intn(40))
	if rng.Intn(20) == 0 {
		lag = uint64(rng.Intn(2000))
	}
	lc := uint64(0)
	if seq > lag {
		lc = seq - lag
	}
	return &TxnCert{
		TID:           tid,
		Site:          SiteID(rng.Intn(4) + 1),
		LastCommitted: lc,
		ReadSet:       mkSet(20),
		WriteSet:      mkSet(12),
		WriteBytes:    rng.Intn(512),
	}
}

// horizonStream draws certification messages from sites 1..4 that keep the
// low-water promise: each site's marks never fall, and no message carries a
// snapshot below a mark its site sent earlier. Snapshots lag the current
// sequence by up to 60, occasionally more, but never past the sender's mark.
type horizonStream struct {
	rng   *rand.Rand
	marks [5]uint64
}

func (h *horizonStream) next(tid, seq uint64) *TxnCert {
	t := randCert(h.rng, tid, seq)
	site := SiteID(h.rng.Intn(4) + 1)
	t.TID = MakeTID(site, uint32(tid))
	t.Site = site
	lo := h.marks[site]
	t.LastCommitted = max(t.LastCommitted, lo)
	// The new mark lies between the old one and this snapshot.
	t.LowWater = lo + uint64(h.rng.Int63n(int64(t.LastCommitted-lo)+1))
	h.marks[site] = t.LowWater
	return t
}

// horizonDifferential runs a horizon-pruned indexed certifier
// — marks recorded and history pruned at every delivery — against an
// unpruned scan certifier fed the same stream, with a share of it routed
// through the cross-group vote and decide. Outcomes, votes and Seq must be
// identical: the horizon never removes an entry a later message needs, so
// the pruned-window abort never fires. The pruned window must also stay
// shallow, or the test proves nothing.
func horizonDifferential(t *testing.T) {
	gen := &horizonStream{rng: rand.New(rand.NewSource(17))}
	idx := NewCertifier()
	idx.TrackSites([]SiteID{1, 2, 3, 4})
	ref := NewScanCertifier()
	type voted struct {
		cert *TxnCert
		vote bool
	}
	var pending []voted
	commits, aborts, deepest := 0, 0, 0
	for i := 0; i < 20000; i++ {
		cert := gen.next(uint64(i+1), idx.Seq())
		if gen.rng.Intn(5) == 0 {
			vi, vr := idx.CheckOnly(cert), ref.CheckOnly(cert)
			if vi != vr {
				t.Fatalf("txn %d: vote diverged: pruned=%v unpruned=%v", i, vi, vr)
			}
			idx.Observe(cert)
			pending = append(pending, voted{cert, vi})
		} else {
			oi, or := idx.Certify(cert), ref.Certify(cert)
			if oi != or {
				t.Fatalf("txn %d: pruned=%+v unpruned=%+v (cert=%+v)", i, oi, or, cert)
			}
			idx.Observe(cert)
			if oi.Commit {
				commits++
			} else {
				aborts++
			}
		}
		if len(pending) > 0 && gen.rng.Intn(3) == 0 {
			v := pending[0]
			pending = pending[1:]
			if v.vote {
				oi, or := idx.ForceCommit(v.cert), ref.ForceCommit(v.cert)
				if oi != or {
					t.Fatalf("txn %d: decide diverged: pruned=%+v unpruned=%+v", i, oi, or)
				}
			}
		}
		if idx.Seq() != ref.Seq() {
			t.Fatalf("txn %d: seq diverged: pruned=%d unpruned=%d", i, idx.Seq(), ref.Seq())
		}
		deepest = max(deepest, idx.HistoryLen())
	}
	if idx.StaleAborts != 0 || idx.CapHits != 0 {
		t.Fatalf("%d stale aborts, %d cap hits; want 0", idx.StaleAborts, idx.CapHits)
	}
	if commits == 0 || aborts == 0 || deepest >= ref.HistoryLen()/10 {
		t.Fatalf("degenerate run: %d commits, %d aborts, pruned window peaked at %d of %d",
			commits, aborts, deepest, ref.HistoryLen())
	}
}

// TestCertifierDifferential proves the inverted-index certifier emits the
// identical outcome stream (commit/abort and sequence numbers) as the
// reference scan certifier over randomized transaction streams, across
// unlimited and tight MaxHistory retention (the pruning paths), and that a
// horizon-pruned certifier agrees with an unpruned one (horizonDifferential).
//
// The vote-decide cases route a share of the stream through the cross-group
// pair instead of Certify: CheckOnly as the vote, and ForceCommit as the
// decide a few positions later. Some decides install a transaction whose
// vote was false, as a decide fixed by other groups' votes can. Votes,
// outcomes, sequence and retained history must agree after every step.
func TestCertifierDifferential(t *testing.T) {
	for _, tc := range []struct {
		name       string
		maxHistory int
		votePct    int
	}{
		{"unbounded", 0, 0},
		{"prune-tight", 64, 0},
		{"prune-mid", 512, 0},
		{"vote-decide-unbounded", 0, 25},
		{"vote-decide-prune-tight", 64, 25},
		{"vote-decide-prune-mid", 512, 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + tc.maxHistory + tc.votePct)))
			idx := NewCertifier()
			scan := NewScanCertifier()
			idx.MaxHistory = tc.maxHistory
			scan.MaxHistory = tc.maxHistory
			same := func(i int) {
				t.Helper()
				if idx.Seq() != scan.Seq() {
					t.Fatalf("txn %d: seq diverged: indexed=%d scan=%d", i, idx.Seq(), scan.Seq())
				}
				if idx.HistoryLen() != scan.HistoryLen() {
					t.Fatalf("txn %d: history diverged: indexed=%d scan=%d", i, idx.HistoryLen(), scan.HistoryLen())
				}
			}
			type voted struct {
				cert *TxnCert
				vote bool
			}
			var pending []voted
			commits, aborts, forcedAgainst := 0, 0, 0
			for i := 0; i < 12000; i++ {
				cert := randCert(rng, uint64(i+1), idx.Seq())
				if rng.Intn(100) < tc.votePct {
					vi, vs := idx.CheckOnly(cert), scan.CheckOnly(cert)
					if vi != vs {
						t.Fatalf("txn %d: vote diverged: indexed=%v scan=%v (cert=%+v)", i, vi, vs, cert)
					}
					pending = append(pending, voted{cert, vi})
				} else {
					oi, os := idx.Certify(cert), scan.Certify(cert)
					if oi != os {
						t.Fatalf("txn %d: indexed=%+v scan=%+v (cert=%+v)", i, oi, os, cert)
					}
					if oi.Commit {
						commits++
					} else {
						aborts++
					}
				}
				same(i)
				if len(pending) == 0 || rng.Intn(3) != 0 {
					continue
				}
				v := pending[0]
				pending = pending[1:]
				if !v.vote {
					if rng.Intn(4) != 0 {
						continue // the decide aborts: nothing installed
					}
					forcedAgainst++
				}
				oi, os := idx.ForceCommit(v.cert), scan.ForceCommit(v.cert)
				if oi != os || !oi.Commit {
					t.Fatalf("txn %d: decide diverged: indexed=%+v scan=%+v", i, oi, os)
				}
				same(i)
			}
			if commits == 0 || aborts == 0 || (tc.votePct > 0 && forcedAgainst == 0) {
				t.Fatalf("degenerate stream: %d commits, %d aborts, %d decides against the vote",
					commits, aborts, forcedAgainst)
			}
		})
	}
	t.Run("horizon-vs-unpruned", horizonDifferential)
}

// TestSpecCertifierIndexedDifferential drives the speculative wrapper over
// the indexed certifier with a permuted tentative order — forcing rollbacks,
// which exercise the index undo log — and checks that the final outcome
// stream matches conservative scan certification of the final stream.
//
// The horizon case tracks sites and draws marks that keep the low-water
// promise; its scan reference never prunes, so agreement shows the
// finalized-only horizon pruning loses nothing.
func TestSpecCertifierIndexedDifferential(t *testing.T) {
	for _, maxHistory := range []int{0, 64, -1} {
		rng := rand.New(rand.NewSource(int64(99 + maxHistory)))
		gen := &horizonStream{rng: rng}
		base := NewCertifier()
		scan := NewScanCertifier()
		if maxHistory < 0 {
			base.TrackSites([]SiteID{1, 2, 3, 4})
		} else {
			base.MaxHistory = maxHistory
			scan.MaxHistory = maxHistory
		}
		spec := NewSpecCertifier(base)

		const window = 6
		for lo := 0; lo < 10000; lo += window {
			batch := make([]*TxnCert, window)
			for i := range batch {
				if maxHistory < 0 {
					batch[i] = gen.next(uint64(lo+i+1), scan.Seq())
				} else {
					batch[i] = randCert(rng, uint64(lo+i+1), scan.Seq())
				}
			}
			// Tentative order: a random permutation of the batch.
			perm := rng.Perm(len(batch))
			for _, p := range perm {
				spec.Tentative(batch[p])
			}
			// Final order: the batch order.
			for i, cert := range batch {
				out, _ := spec.Final(cert)
				want := scan.Certify(cert)
				if out != want {
					t.Fatalf("maxHistory=%d txn %d: spec(indexed)=%+v scan=%+v",
						maxHistory, lo+i, out, want)
				}
			}
		}
		if spec.Rollbacks == 0 {
			t.Fatal("permuted stream produced no rollbacks; test is vacuous")
		}
		if maxHistory < 0 && (base.StaleAborts != 0 || base.HistoryLen() >= scan.HistoryLen()/10) {
			t.Fatalf("horizon: %d stale aborts, window %d of %d", base.StaleAborts, base.HistoryLen(), scan.HistoryLen())
		}
	}
}
