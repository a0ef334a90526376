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

// TestCertifierDifferential proves the inverted-index certifier emits the
// identical outcome stream (commit/abort and sequence numbers) as the
// reference scan certifier over randomized transaction streams, across
// unlimited and tight MaxHistory retention (the pruning paths).
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
}

// TestSpecCertifierIndexedDifferential drives the speculative wrapper over
// the indexed certifier with a permuted tentative order — forcing rollbacks,
// which exercise the index undo log — and checks that the final outcome
// stream matches conservative scan certification of the final stream.
func TestSpecCertifierIndexedDifferential(t *testing.T) {
	for _, maxHistory := range []int{0, 64} {
		rng := rand.New(rand.NewSource(int64(99 + maxHistory)))
		base := NewCertifier()
		base.MaxHistory = maxHistory
		spec := NewSpecCertifier(base)
		scan := NewScanCertifier()
		scan.MaxHistory = maxHistory

		const window = 6
		for lo := 0; lo < 10000; lo += window {
			batch := make([]*TxnCert, window)
			for i := range batch {
				batch[i] = randCert(rng, uint64(lo+i+1), scan.Seq())
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
	}
}
