package dbsm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// SiteID identifies a replica site (matches runtimeapi.NodeID numerically).
type SiteID int32

// MakeTID builds a globally unique transaction identifier from the
// originating site and a site-local counter.
func MakeTID(site SiteID, local uint32) uint64 {
	return uint64(uint32(site))<<32 | uint64(local)
}

// TIDSite extracts the originating site of a transaction identifier.
func TIDSite(tid uint64) SiteID { return SiteID(tid >> 32) }

// TxnCert is the information gathered when a transaction enters the
// committing stage and atomically multicast to all replicas (Section 3.3):
// identifiers of tuples read and written, the values of written tuples
// (represented by their total size; padding makes the wire message match
// real traffic), and the sequence number of the last transaction committed
// locally, which determines which transactions executed concurrently.
type TxnCert struct {
	// TID is the globally unique transaction identifier.
	TID uint64
	// Site is the originating replica. It is not sent: the decoder
	// derives it as TIDSite(TID).
	Site SiteID
	// LastCommitted is the certification sequence number of the last
	// transaction applied at Site when this transaction started.
	LastCommitted uint64
	// LowWater is Site's low-water mark when the message was built: no
	// certification message Site sends later carries a LastCommitted
	// below it. Certifiers prune their history to the smallest delivered
	// mark (see Certifier.Observe). The wire carries it as a 32-bit lag
	// below LastCommitted that saturates at all ones, which decodes as
	// mark 0: a lag too long to encode yields a lower, conservative mark.
	LowWater uint64
	// ReadSet and WriteSet are the sorted tuple identifier sets.
	ReadSet  ItemSet
	WriteSet ItemSet
	// WriteBytes is the total size of the written tuple values.
	WriteBytes int
}

// certHeader is the fixed header: TID, low-water lag, LastCommitted, the two
// set lengths and WriteBytes.
const certHeader = 8 + 4 + 8 + 4 + 4 + 4

// lagSaturated is the lag word of a mark too far below LastCommitted to
// encode; it decodes as mark 0.
const lagSaturated = 1<<32 - 1

// lowWaterLag encodes the low-water mark as its distance below LastCommitted,
// saturating at lagSaturated; a mark above LastCommitted encodes as 0.
func (t *TxnCert) lowWaterLag() uint32 {
	if t.LowWater >= t.LastCommitted {
		return 0
	}
	return uint32(min(t.LastCommitted-t.LowWater, lagSaturated))
}

// MarshaledSize reports the wire size of the certification message,
// including value padding.
func (t *TxnCert) MarshaledSize() int {
	return certHeader + 8*(len(t.ReadSet)+len(t.WriteSet)) + t.WriteBytes
}

// zeroChunk is the shared source of value padding: MarshalTo copies from it
// instead of allocating WriteBytes of zeroes per message.
var zeroChunk [4096]byte

// Marshal encodes the certification message into a freshly allocated buffer.
// Hot paths should prefer MarshalTo with a reused scratch buffer.
func (t *TxnCert) Marshal() []byte {
	return t.MarshalTo(nil)
}

// MarshalTo encodes the certification message, appending to buf[:0] (buf may
// be nil) and reallocating only when buf's capacity is insufficient — so a
// caller-owned scratch buffer makes marshaling allocation-free. Written
// values are represented by zero padding of the appropriate length, sizing
// the message as in a real system; the padding is copied from a shared zero
// chunk rather than allocated per message.
//
// The returned slice aliases buf when it fits: the caller must finish using
// (or copying) the encoding before reusing the scratch.
//
//hot:path
func (t *TxnCert) MarshalTo(buf []byte) []byte {
	n := t.MarshaledSize()
	if cap(buf) < n {
		//lint:hotalloc-ok capacity miss grows the caller's scratch once, then amortised free
		buf = make([]byte, 0, n)
	}
	buf = buf[:0]
	buf = binary.BigEndian.AppendUint64(buf, t.TID)
	buf = binary.BigEndian.AppendUint32(buf, t.lowWaterLag())
	buf = binary.BigEndian.AppendUint64(buf, t.LastCommitted)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.ReadSet)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.WriteSet)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.WriteBytes))
	for _, id := range t.ReadSet {
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	}
	for _, id := range t.WriteSet {
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	}
	for pad := t.WriteBytes; pad > 0; {
		c := min(pad, len(zeroChunk))
		buf = append(buf, zeroChunk[:c]...)
		pad -= c
	}
	return buf
}

// errBadCert reports a malformed certification message.
var errBadCert = errors.New("dbsm: malformed certification message")

// Unmarshal decodes a certification message. Site is derived from the TID
// and LowWater from its lag word. The item sets are copied out, so b may be
// reused or mutated afterwards. Length fields are validated against len(b)
// before any offset arithmetic, so hostile values cannot overflow the offset
// computations.
//
//hot:path
func Unmarshal(b []byte) (*TxnCert, error) {
	if len(b) < certHeader {
		return nil, errBadCert
	}
	//lint:hotalloc-ok decode returns a fresh message by contract; one struct per decode
	t := &TxnCert{
		TID:           binary.BigEndian.Uint64(b[0:8]),
		LastCommitted: binary.BigEndian.Uint64(b[12:20]),
	}
	t.Site = TIDSite(t.TID)
	if lag := uint64(binary.BigEndian.Uint32(b[8:12])); lag < lagSaturated && lag < t.LastCommitted {
		t.LowWater = t.LastCommitted - lag
	}
	nr := int(binary.BigEndian.Uint32(b[20:24]))
	nw := int(binary.BigEndian.Uint32(b[24:28]))
	t.WriteBytes = int(binary.BigEndian.Uint32(b[28:32]))
	// Bound each count by the bytes actually present before computing any
	// combined offset: nr+nw and the per-element products stay far below
	// overflow once each is capped by len(b)/8. The sign checks matter on
	// 32-bit platforms, where a hostile uint32 converts to a negative int.
	avail := len(b) - certHeader
	if nr < 0 || nw < 0 || t.WriteBytes < 0 ||
		nr > avail/8 || nw > avail/8-nr || t.WriteBytes > avail-8*(nr+nw) {
		return nil, errBadCert
	}
	// Both sets share one backing array: a single allocation per decode.
	//lint:hotalloc-ok deliberate single allocation shared by both item sets
	ids := make(ItemSet, nr+nw)
	for i := range ids {
		ids[i] = TupleID(binary.BigEndian.Uint64(b[certHeader+8*i:]))
	}
	t.ReadSet = ids[:nr:nr]
	t.WriteSet = ids[nr:]
	return t, nil
}

// PeekTID extracts the transaction identifier from a marshaled certification
// message without decoding the item sets — the optimistic final-delivery fast
// path, which already holds the fully decoded message from the tentative
// stage and only needs the key to look it up.
//
//hot:path
func PeekTID(b []byte) (uint64, error) {
	if len(b) < certHeader {
		return 0, errBadCert
	}
	return binary.BigEndian.Uint64(b[0:8]), nil
}

// Outcome is the certification verdict, identical at every replica.
type Outcome struct {
	// Commit reports whether the transaction passed certification.
	Commit bool
	// Seq is the commit sequence number (1-based) when Commit is true.
	Seq uint64
}

// Certifier executes the deterministic certification procedure. Each replica
// feeds it the totally-ordered stream of TxnCert messages; because the input
// order and the procedure are identical everywhere, every replica reaches
// the same verdict for every transaction.
//
// Certification is a conflict test (CheckOnly) followed by an install
// (ForceCommit); Certify runs both in one step, and the cross-group commit
// round runs them apart as its vote and its decide. Installs maintain an
// inverted last-writer index — per tuple, the highest sequence number that
// committed a write to it — so the default conflict test (NewCertifier)
// costs O(|ReadSet|) lookups regardless of history depth. The reference
// conflict test (NewScanCertifier) scans the retained history as the paper
// formulates the procedure; it exists for differential testing and produces
// the identical outcome stream.
//
// The retained history only has to reach back to the oldest snapshot any
// transaction still in flight can carry. Every message carries its sender's
// low-water mark; Observe, run at final delivery, records it and prunes the
// history to the horizon — the smallest latest mark over the tracked sites
// (TrackSites). The horizon is a pure function of the delivered stream, so
// every replica prunes identically, and no later message can carry a
// snapshot below it, so the pruned-window abort never fires. A site that
// stops sending (crashed or excluded) keeps its last mark, which holds the
// window open back to its crash point. MaxHistory caps the window for the
// case where a site never sends at all.
type Certifier struct {
	// Charge, if set, is invoked with the number of set items the
	// certification actually touched — the conflict test's index lookups
	// (identifier comparisons in scan mode), then the install's index
	// insertions — letting the caller account CPU cost for this real code.
	Charge func(items int)
	// MaxHistory caps retained committed write-sets (0 = unlimited). The
	// cap is a pure function of the certified stream, so every replica
	// prunes identically; a transaction whose snapshot predates the
	// retained window aborts deterministically (conservative).
	MaxHistory int
	// Veto, if set, is consulted before the conflict test; returning true
	// aborts the transaction regardless of its sets. The cross-group
	// commit path uses it to block transactions conflicting with a pending
	// reservation — the predicate must be a pure function of state derived
	// from the certified stream, so every replica vetoes identically.
	Veto func(*TxnCert) bool

	// StaleAborts counts conflict tests aborted because the snapshot
	// predates the retained window. Horizon pruning keeps it at zero; only
	// a MaxHistory cap hit can make it fire.
	StaleAborts int64
	// CapHits counts prunings that the MaxHistory cap forced past the
	// horizon.
	CapHits int64

	// scan selects the reference conflict test (see NewScanCertifier).
	scan bool
	// undoEnabled records index restore logs with each history entry.
	// Only speculative (tentative) certification ever truncates, so the
	// SpecCertifier wrapper enables it; a plain conservative certifier
	// skips the bookkeeping entirely.
	undoEnabled bool
	hist        history
	seq         uint64
	pruned      uint64 // highest seq dropped by pruning
	// marks holds the latest delivered low-water mark of each tracked site.
	marks []SiteMark

	// lastWriter maps a tuple to the highest sequence number that
	// committed a write to it.
	lastWriter map[TupleID]uint64
}

// SiteMark is one tracked site's latest delivered low-water mark.
type SiteMark struct {
	Site SiteID
	Mark uint64
}

// histEntry is one committed write-set. undo is the index restore log:
// replaying it newest-first returns the index to its state before this
// commit, which is how speculative rollback unwinds tentative
// certifications.
type histEntry struct {
	seq      uint64
	writeSet ItemSet
	undo     []undoRec
}

// undoRec records one lastWriter cell's value prior to an update. prev == 0
// means the cell was absent (sequence numbers are 1-based).
type undoRec struct {
	key  TupleID
	prev uint64
}

// NewCertifier returns an empty certifier whose conflict test reads the
// last-writer index.
func NewCertifier() *Certifier {
	return &Certifier{lastWriter: make(map[TupleID]uint64)}
}

// NewScanCertifier returns an empty certifier whose conflict test is the
// reference history scan (O(concurrent-history × read-set) per transaction).
// It still maintains the last-writer index, which its conflict test never
// reads, so install, pruning, rollback and state import run the same code
// for both certifiers and only the conflict test differs.
func NewScanCertifier() *Certifier {
	c := NewCertifier()
	c.scan = true
	return c
}

// TrackSites sets the sites whose low-water marks bound pruning: every
// configured site of the certifier's group. Each mark starts at 0, so
// nothing is pruned to the horizon until every site has sent. A certifier
// that tracks no site prunes only by MaxHistory.
func (c *Certifier) TrackSites(sites []SiteID) {
	c.marks = c.marks[:0]
	for _, s := range sites {
		c.marks = append(c.marks, SiteMark{Site: s})
	}
}

// Seq reports the current commit sequence number (count of committed
// transactions so far).
func (c *Certifier) Seq() uint64 { return c.seq }

// HistoryLen reports retained committed write-sets (for pruning tests).
func (c *Certifier) HistoryLen() int { return c.hist.len() }

// Certify decides a transaction's fate: it aborts iff the Veto predicate
// rejects it or its read-set intersects the write-set of any committed
// transaction that executed concurrently (certification sequence number
// greater than the transaction's LastCommitted snapshot), and otherwise
// commits it.
//
//hot:path
func (c *Certifier) Certify(t *TxnCert) Outcome {
	if c.Veto != nil && c.Veto(t) {
		return Outcome{}
	}
	if !c.CheckOnly(t) {
		return Outcome{}
	}
	return c.ForceCommit(t)
}

// CheckOnly runs the certification conflict test — would t commit against
// the current state? — without committing it. Certify uses it as its test;
// on its own it is the home-group vote of the cross-group commit round,
// which does not consult Veto because the caller combines this test with its
// own reservation check. Charge receives the items touched: the index
// lookups up to and including the first conflicting read, or the scan's
// identifier comparisons.
//
//hot:path
func (c *Certifier) CheckOnly(t *TxnCert) bool {
	if t.LastCommitted < c.pruned && len(t.ReadSet) > 0 {
		// Entries possibly concurrent with this transaction were
		// pruned: conflicts can no longer be ruled out. Abort —
		// deterministically, since pruning follows the certified
		// stream identically at every replica.
		c.StaleAborts++
		return false
	}
	work, ok := 0, true
	if c.scan {
		// Reference procedure: scan every retained write-set that
		// committed after the snapshot. Binary search for the first
		// one, open-coded: a sort.Search closure is a heap allocation
		// per certification.
		lo, hi := 0, c.hist.len()
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if c.hist.at(mid).seq > t.LastCommitted {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		for i := lo; i < c.hist.len(); i++ {
			e := c.hist.at(i)
			work += len(e.writeSet) + len(t.ReadSet)
			if e.writeSet.Intersects(t.ReadSet) {
				ok = false
				break
			}
		}
	} else {
		for _, r := range t.ReadSet {
			work++
			if c.lastWriter[r] > t.LastCommitted {
				ok = false
				break
			}
		}
	}
	if c.Charge != nil {
		c.Charge(work)
	}
	return ok
}

// ForceCommit installs t unconditionally: it advances the sequence, records
// and indexes the write-set, and applies the MaxHistory cap. Certify uses it
// as its install; on its own it is the decide of the cross-group commit
// round, whose verdict was fixed by the vote — re-testing there would be
// wrong, since unrelated local commits may have advanced the state past t's
// snapshot while the reservation protected its conflict set. Charge
// receives |WriteSet|, the index insertions.
//
//hot:path
func (c *Certifier) ForceCommit(t *TxnCert) Outcome {
	if c.Charge != nil {
		c.Charge(len(t.WriteSet))
	}
	c.seq++
	if len(t.WriteSet) > 0 {
		e := histEntry{seq: c.seq, writeSet: t.WriteSet.Clone()}
		e.undo = c.indexWrites(t.WriteSet)
		c.hist.push(e)
		if c.MaxHistory > 0 {
			c.prune(c.hist.len(), c.MaxHistory)
		}
	}
	return Outcome{Commit: true, Seq: c.seq}
}

// Observe is the final-delivery step after certification: it records t's
// low-water mark for its originating site — ignored unless the site is
// tracked, so relayed parts from other groups never move the horizon — and
// prunes the history to the new horizon. Pruning is not charged: it is
// bookkeeping outside the modelled certification cost.
//
//hot:path
func (c *Certifier) Observe(t *TxnCert) {
	c.noteMark(t)
	c.prune(c.hist.len(), c.MaxHistory)
}

// noteMark records t's low-water mark as its site's latest.
func (c *Certifier) noteMark(t *TxnCert) {
	for i := range c.marks {
		if c.marks[i].Site == t.Site {
			c.marks[i].Mark = t.LowWater
			return
		}
	}
}

// horizon reports the smallest latest mark over the tracked sites (0 when
// none is tracked): no message still to be delivered has a snapshot below
// it.
func (c *Certifier) horizon() uint64 {
	if len(c.marks) == 0 {
		return 0
	}
	h := c.marks[0].Mark
	for _, m := range c.marks[1:] {
		h = min(h, m.Mark)
	}
	return h
}

// prune drops, among the oldest eligible entries, every one at or below the
// horizon, then as many more as the maxHistory cap (0 = none) requires.
// Only eligible entries may go: SpecCertifier passes its finalized prefix so
// tentative commits are never pruned. It returns the number dropped.
func (c *Certifier) prune(eligible, maxHistory int) int {
	h := c.horizon()
	drop := 0
	for drop < eligible && c.hist.at(drop).seq <= h {
		drop++
	}
	if maxHistory > 0 && eligible-drop > maxHistory {
		drop = eligible - maxHistory
		c.CapHits++
	}
	c.dropOldest(drop)
	return drop
}

// indexWrites records ws as committed at the current sequence number and —
// when undo logging is enabled — returns the log restoring the index cells
// it displaced.
func (c *Certifier) indexWrites(ws ItemSet) []undoRec {
	var undo []undoRec
	if c.undoEnabled {
		undo = make([]undoRec, 0, len(ws))
	}
	for _, w := range ws {
		if c.undoEnabled {
			undo = append(undo, undoRec{key: w, prev: c.lastWriter[w]})
		}
		c.lastWriter[w] = c.seq
	}
	return undo
}

// truncate restores the certifier to an earlier state: history cut back to
// histLen entries and the sequence counter to seqBefore, with every index
// update of the removed entries unwound (newest first). It is the undo
// primitive of speculative rollback — only valid on a certifier whose undo
// logging was enabled by its SpecCertifier wrapper; the removed suffix never
// crosses the pruning boundary because SpecCertifier prunes only the
// finalized region.
func (c *Certifier) truncate(histLen int, seqBefore uint64) {
	if !c.undoEnabled && c.hist.len() > histLen {
		panic("dbsm: truncate on a certifier without undo logging")
	}
	for i := c.hist.len() - 1; i >= histLen; i-- {
		e := c.hist.at(i)
		for j := len(e.undo) - 1; j >= 0; j-- {
			if u := e.undo[j]; u.prev == 0 {
				delete(c.lastWriter, u.key)
			} else {
				c.lastWriter[u.key] = u.prev
			}
		}
	}
	c.hist.truncate(histLen)
	c.seq = seqBefore
}

// dropOldest removes the oldest drop history entries and advances the
// pruning boundary to the newest dropped sequence. Index cells still
// pointing at dropped sequences are deleted: any transaction that survives
// the pruned-window abort rule has LastCommitted at or above every dropped
// sequence, so those cells can never produce a conflict again — removing
// them bounds the index to the live history.
func (c *Certifier) dropOldest(drop int) {
	if drop <= 0 {
		return
	}
	c.pruned = c.hist.at(drop - 1).seq
	for i := 0; i < drop; i++ {
		for _, w := range c.hist.at(i).writeSet {
			if c.lastWriter[w] <= c.pruned {
				delete(c.lastWriter, w)
			}
		}
	}
	c.hist.dropOldest(drop)
}

// String aids debugging.
func (c *Certifier) String() string {
	return fmt.Sprintf("certifier{seq=%d history=%d}", c.seq, c.hist.len())
}
