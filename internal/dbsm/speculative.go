package dbsm

// SpecCertifier layers tentative certification with undo on a Certifier,
// supporting the optimistic-delivery protocol variant: transactions are
// certified in the spontaneous (tentative) delivery order as soon as they
// arrive, one ordering round before the sequencer's final total order. When
// the final order confirms the tentative order, the tentative outcome is
// authoritative and the final delivery costs nothing; when the orders
// diverge, every outstanding tentative decision is rolled back and
// certification restarts from the last finalized state.
//
// Correctness invariant: tent[i] was certified against the state reached by
// the finalized stream plus tent[0..i-1] in queue order. Matching pops
// preserve it (tent[0]'s certification state was exactly the finalized
// state), and any divergence rolls back the whole queue, so a popped outcome
// is always identical to what conservative certification of the final stream
// would have produced.
//
// Pruning is deferred to finalization so it stays a pure function of the
// finalized stream: a Certifier owned by a SpecCertifier never prunes inside
// Certify (its MaxHistory is cleared at construction); instead Observe runs
// after each finalized transaction, records its low-water mark, and drops
// the oldest finalized entries at or below the horizon, then any beyond the
// cap. Tentative certification therefore never moves the pruning boundary,
// and every replica — whatever its local tentative queue looked like —
// prunes at the same finalized positions.
type SpecCertifier struct {
	c          *Certifier
	maxHistory int
	tent       []specEntry

	// Stats, exported for the replica's pipeline counters.
	Tentatives int64 // tentative certifications (including re-certifications)
	Matches    int64 // final deliveries confirming the tentative order
	Rollbacks  int64 // tentative/final order divergences unwound
}

type specEntry struct {
	t         *TxnCert
	out       Outcome
	histLen   int    // certifier history length before this tentative certify
	seqBefore uint64 // certifier seq before this tentative certify
}

// NewSpecCertifier wraps a certifier for speculative use. The certifier's
// in-Certify pruning is disabled (see the type comment); the wrapper prunes
// deterministically at finalization instead. Index undo logging is switched
// on so rollbacks can restore the inverted index.
func NewSpecCertifier(c *Certifier) *SpecCertifier {
	s := &SpecCertifier{c: c, maxHistory: c.MaxHistory}
	c.MaxHistory = 0
	c.undoEnabled = true
	return s
}

// Certifier exposes the wrapped deterministic certifier.
func (s *SpecCertifier) Certifier() *Certifier { return s.c }

// Finalized reports the certifier's finalized prefix: the history length and
// commit sequence excluding outstanding tentative certifications. A snapshot
// exported from a speculating donor must be truncated to this prefix —
// tentative commits can still be rolled back, and shipping them would leave
// the importer with phantom commits no other replica has.
func (s *SpecCertifier) Finalized() (histLen int, seq uint64) {
	if len(s.tent) == 0 {
		return s.c.hist.len(), s.c.seq
	}
	return s.tent[0].histLen, s.tent[0].seqBefore
}

// Pending reports outstanding tentative decisions awaiting final order.
func (s *SpecCertifier) Pending() int { return len(s.tent) }

// Tentative certifies t in tentative order and queues the decision. The
// outcome is speculative: it becomes authoritative only when Final confirms
// the order.
func (s *SpecCertifier) Tentative(t *TxnCert) Outcome {
	e := specEntry{t: t, histLen: s.c.hist.len(), seqBefore: s.c.seq}
	e.out = s.c.Certify(t)
	s.tent = append(s.tent, e)
	s.Tentatives++
	return e.out
}

// Final resolves the final-order delivery of t. When t matches the head of
// the tentative queue, its queued outcome is returned with no further
// certification work and rolled is nil. Otherwise every outstanding
// tentative decision is undone, t is certified against the restored
// finalized state, and the rolled-back transactions (t excluded) are
// returned in tentative order for the caller to re-speculate.
func (s *SpecCertifier) Final(t *TxnCert) (out Outcome, rolled []*TxnCert) {
	if len(s.tent) > 0 && s.tent[0].t.TID == t.TID && !s.pruneInvalidated(&s.tent[0]) {
		out = s.tent[0].out
		s.tent = s.tent[1:]
		s.Matches++
		s.Observe(t)
		return out, nil
	}
	rolled = s.rollback(t.TID)
	out = s.c.Certify(t)
	s.Observe(t)
	return out, rolled
}

// pruneInvalidated reports whether pruning performed since e's tentative
// certification retroactively invalidates its commit verdict: conservative
// certification of the final stream would abort e under the pruned-window
// rule, while the tentative pass — which still saw the dropped entries —
// found no conflict. Such an entry must take the rollback path.
func (s *SpecCertifier) pruneInvalidated(e *specEntry) bool {
	return e.out.Commit && len(e.t.ReadSet) > 0 && e.t.LastCommitted < s.c.pruned
}

// Invalidate removes a tentative decision whose message will never reach
// final delivery — the group discarded it during a view change. A stuck
// entry would otherwise mismatch every subsequent Final forever, so the
// whole queue is rolled back once; the survivors are returned in tentative
// order for re-speculation. Returns nil when tid was never speculated on.
func (s *SpecCertifier) Invalidate(tid uint64) []*TxnCert {
	for _, e := range s.tent {
		if e.t.TID == tid {
			return s.rollback(tid)
		}
	}
	return nil
}

// InvalidateAll rolls back every outstanding tentative decision and returns
// the rolled-back transactions in tentative order for re-speculation. The
// cross-commit manager calls it before mutating shared certifier state at a
// final-order event (reservation install, forced commit): tentative outcomes
// computed against the pre-event state would otherwise be served by Final's
// head-match fast path after the state changed under them.
func (s *SpecCertifier) InvalidateAll() []*TxnCert {
	return s.rollback(0)
}

// rollback undoes every tentative decision, restoring the certifier to the
// finalized state, and returns the rolled-back transactions in tentative
// order minus the one being finalized (skip).
func (s *SpecCertifier) rollback(skip uint64) []*TxnCert {
	if len(s.tent) == 0 {
		return nil
	}
	e0 := s.tent[0]
	s.c.truncate(e0.histLen, e0.seqBefore)
	rolled := make([]*TxnCert, 0, len(s.tent))
	for _, e := range s.tent {
		if e.t.TID != skip {
			rolled = append(rolled, e.t)
		}
	}
	s.tent = s.tent[:0]
	s.Rollbacks++
	return rolled
}

// Observe is Certifier.Observe restricted to the finalized region: it
// records t's low-water mark and prunes only entries below the oldest
// outstanding tentative one, so the boundary is a pure function of the
// finalized stream and identical at every replica. Final calls it; the
// cross-group commit round calls it for prepares, which never speculate.
func (s *SpecCertifier) Observe(t *TxnCert) {
	s.c.noteMark(t)
	finalized := s.c.hist.len()
	if len(s.tent) > 0 {
		finalized = s.tent[0].histLen
	}
	drop := s.c.prune(finalized, s.maxHistory)
	for i := range s.tent {
		s.tent[i].histLen -= drop
	}
}
