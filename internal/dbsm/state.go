package dbsm

// CertState is a portable snapshot of a certifier's decision-relevant state:
// the commit sequence, the pruning boundary, the tracked sites' low-water
// marks, and the retained committed write-sets. It is what a recovering site
// state-transfers from a donor (internal/recovery) instead of replaying the
// certified stream from zero: importing the state and then feeding the
// post-snapshot stream yields verdicts — and pruning — identical to having
// processed the whole stream.
//
// The retained history reaches back to the horizon: the smallest latest mark
// over the group's sites. A crashed site's mark stays frozen at its last
// message, so while it is down the window keeps every write-set committed
// since its crash point, and a delta transfer can ship exactly the pages
// written since. MaxHistory caps the window only for a site that never
// sends.
//
// The inverted last-writer index is deliberately not serialized: it is a pure
// function of the retained history (dropOldest deletes every index cell at or
// below the pruning boundary), so ImportState rebuilds it by replaying the
// entries — which also regenerates the undo logs a speculative wrapper needs.
type CertState struct {
	// Seq is the commit sequence number at export.
	Seq uint64
	// Pruned is the pruning boundary: transactions whose snapshot predates
	// it abort deterministically.
	Pruned uint64
	// Marks holds each tracked site's latest delivered low-water mark.
	Marks []SiteMark
	// History holds the retained committed write-sets, oldest first.
	History []CommitRecord
}

// CommitRecord is one retained committed write-set.
type CommitRecord struct {
	Seq      uint64
	WriteSet ItemSet
}

// WireSize reports the modeled transfer size of the state in bytes: two
// sequence fields, 12 bytes per site mark, plus, per record, its sequence
// and 8 bytes per item.
func (st *CertState) WireSize() int64 {
	n := int64(16) + 12*int64(len(st.Marks))
	for i := range st.History {
		n += 8 + 8*int64(len(st.History[i].WriteSet))
	}
	return n
}

// ExportState snapshots the certifier. Write-sets are deep-copied, so the
// exporting certifier can keep running (and pruning) while the snapshot is in
// transit.
func (c *Certifier) ExportState() *CertState {
	st := &CertState{
		Seq:     c.seq,
		Pruned:  c.pruned,
		Marks:   append([]SiteMark(nil), c.marks...),
		History: make([]CommitRecord, c.hist.len()),
	}
	for i := range st.History {
		e := c.hist.at(i)
		st.History[i] = CommitRecord{Seq: e.seq, WriteSet: e.writeSet.Clone()}
	}
	return st
}

// ImportState replaces the certifier's state with a snapshot, rebuilding the
// last-writer index (and, when undo logging is enabled, the restore logs) by
// replaying the retained history. Any prior state, tracked marks included,
// is discarded.
func (c *Certifier) ImportState(st *CertState) {
	c.hist.truncate(0)
	c.lastWriter = make(map[TupleID]uint64, len(st.History))
	c.pruned = st.Pruned
	c.marks = append(c.marks[:0], st.Marks...)
	for i := range st.History {
		rec := &st.History[i]
		e := histEntry{seq: rec.Seq, writeSet: rec.WriteSet.Clone()}
		c.seq = rec.Seq
		e.undo = c.indexWrites(e.writeSet)
		c.hist.push(e)
	}
	c.seq = st.Seq
}
