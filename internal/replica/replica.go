// Package replica glues one site's database server to the replication
// prototypes: it is the distributed termination path of Section 3.3. Update
// transactions entering the committing stage are marshaled and atomically
// multicast through the group communication stack; upon delivery each
// replica runs the deterministic certification procedure and either installs
// the write-set (remote transactions) or resolves the local transaction.
//
// Two protocol variants share this glue. The conservative variant certifies
// on final (total-order) delivery only. The optimistic variant
// (Options.Optimistic) runs a two-stage pipeline: on tentative delivery —
// the stack's spontaneous receive order, one ordering round before the
// sequencer's assignment — it certifies speculatively and pre-writes remote
// write-sets to scratch storage; on final delivery it confirms the queued
// verdict with no further certification work when the orders agree, and
// rolls back plus re-certifies when they diverge. Commit logs are appended
// only on final delivery, so both variants decide identically at every
// replica — the optimistic one just overlaps certification and write-back
// with the ordering round.
package replica

import (
	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/gcs"
	"repro/internal/recovery"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xgroup"
)

// Options tune the replica glue.
type Options struct {
	// Optimistic selects the optimistic-delivery protocol variant: the
	// two-stage certify-on-tentative / commit-on-final pipeline described
	// in the package comment.
	Optimistic bool
	// Recovering starts the replica in recovery mode: final deliveries are
	// buffered (and speculation suppressed) until InstallSnapshot seeds
	// the certifier and commit log from a donor and replays the buffered
	// delta. Used for a site rejoining after a crash.
	Recovering bool
	// BacklogHigh/BacklogLow are the hysteresis watermarks over this
	// replica's in-flight termination backlog (multicast but unresolved
	// local transactions). Crossing High asserts backpressure on the
	// server's admission gate; the signal releases once the backlog
	// drains to Low. BacklogHigh == 0 disables the gauge.
	BacklogHigh int
	BacklogLow  int

	// Group mode (partial replication by replication group). GroupCount > 1
	// enables it: this stack orders only its own group's transactions,
	// stream payloads carry a one-byte xgroup tag, and multi-group
	// transactions run the cross-group commit round (see xcommit.go).
	// Group is this site's 1-based group; SitesPerGroup fixes the
	// contiguous site numbering (group g owns sites (g-1)·S+1 .. g·S);
	// GroupOf classifies a tuple's owning group (0 = replicated catalog).
	// Incompatible with Recovering.
	Group         int
	GroupCount    int
	SitesPerGroup int
	GroupOf       func(dbsm.TupleID) int
}

// The real-code cost model and retention bounds every replica shares.
const (
	// certCostPerItem is the CPU cost per certification item touched
	// (index lookup or insertion).
	certCostPerItem = 40 * sim.Nanosecond
	// marshalCostPerByte is the CPU cost per marshaled or unmarshaled
	// byte.
	marshalCostPerByte = 2 * sim.Nanosecond
	// maxHistory caps the certifier's retained write-sets. The window
	// normally ends at the horizon: the smallest low-water mark delivered
	// from each configured site of the group (dbsm.Certifier.Observe). A
	// crashed or excluded site's mark stays frozen, holding the window
	// open back to its crash point so delta recovery can ship only the
	// pages written since. The cap binds only when a site never sends;
	// Stats.HistoryCapHits counts it. Both bounds are pure functions of
	// the certified stream, so every replica prunes identically.
	maxHistory = 50000
	// xRetryPeriod is the cross-group coordinator's retransmit period.
	xRetryPeriod = 100 * sim.Millisecond
)

// Stats counts replica-level termination activity. Each field is the
// counter's only declaration: core folds it across incarnations and sites
// with metrics.Fold (summing, or keeping the larger value for fold:"max"),
// reports it as a Results field of the same name, and exports fields tagged
// feature:"key" in the run's Features fingerprint.
type Stats struct {
	// Delivered is the number of totally-ordered certification messages
	// processed.
	Delivered int64
	// CertDrops counts delivered payloads discarded because dbsm.Unmarshal
	// rejected them. Always zero in a healthy run: the reliable multicast
	// only hands up complete messages, so a drop here means a marshaling
	// or wire-format bug, not network loss.
	CertDrops int64
	// Tentative counts tentative certifications, including
	// re-certifications after rollbacks (optimistic variant only).
	Tentative int64
	// Rollbacks counts tentative/final order divergences that unwound the
	// speculative state.
	Rollbacks int64 `feature:"rollbacks"`
	// Recertified counts transactions re-certified after a rollback.
	Recertified int64 `feature:"recertified"`
	// PreApplied counts remote write-sets speculatively pre-written to
	// scratch storage at tentative delivery.
	PreApplied int64
	// PreApplyWasted counts pre-writes whose transaction finally aborted:
	// disk bandwidth spent on a wrong speculation.
	PreApplyWasted int64
	// DeltaApplied counts deliveries buffered during a recovery transfer
	// and replayed at snapshot install (the delta catch-up cost).
	DeltaApplied int64 `feature:"deltaapplied"`
	// MulticastRefused counts terminations the stack's bounded transmit
	// queue refused; each one surfaced as an explicit client rejection.
	MulticastRefused int64
	// Backpressure counts times the termination backlog crossed the high
	// watermark and engaged the server's admission gate.
	Backpressure int64
	// BacklogPeak is the high-water mark of the in-flight termination
	// backlog.
	BacklogPeak int64 `fold:"max" feature:"backlogpeak"`
	// Cross-group commit round counters (group mode only). MultiGroupTxns
	// counts multi-group transactions this site coordinated; XCommitted
	// and XAborted count cross-group decisions applied at this site;
	// XRetries counts coordinator retransmit ticks; XHandovers counts
	// rounds inherited from a dead coordinator.
	MultiGroupTxns int64
	XCommitted     int64
	XAborted       int64
	XRetries       int64 `feature:"xretries"`
	XHandovers     int64 `feature:"xhandovers"`
	// XVetoes counts local certifications aborted by the cross-group veto:
	// a transaction conflicted with an active prepare reservation.
	XVetoes int64 `feature:"xvetoes"`
	// XPrepFrags counts prepare relay fragments sent because the item sets
	// alone exceeded the MTU (padding trimming could not fit the frame).
	XPrepFrags int64 `feature:"xprepfrags"`
	// StaleAborts counts certifications aborted because the snapshot
	// predated the certifier's retained window. Horizon pruning keeps it
	// at zero; only a MaxHistory cap hit can make it fire.
	StaleAborts int64
	// HistoryCapHits counts prunings the maxHistory cap forced past the
	// horizon (a configured site that never sent).
	HistoryCapHits int64
}

// tentTxn is the replica-side state of one tentatively-delivered message.
type tentTxn struct {
	tc         *dbsm.TxnCert
	out        dbsm.Outcome
	preApplied bool
}

// Replica wires a server into the group.
type Replica struct {
	rt     runtimeapi.Runtime
	stack  *gcs.Stack
	server *db.Server
	cert   *dbsm.Certifier
	spec   *dbsm.SpecCertifier // optimistic variant only
	site   dbsm.SiteID
	opts   Options

	// x runs the cross-group commit round in group mode (nil otherwise).
	x *xmgr

	tent map[uint64]*tentTxn // TID -> outstanding tentative state
	// done marks messages finalized before their tentative job ran. At the
	// sequencer the total order is assigned in the very job that receives
	// the data, so final delivery beats the scheduled tentative stage for
	// every message — there is no speculation window to exploit there. The
	// late tentative job must then skip the message entirely or it would
	// poison the speculative queue with entries that can never finalize.
	done map[uint64]bool

	// scratch is the reusable certification-marshal buffer: the stack's
	// Multicast copies the payload into stream chunks before returning,
	// so the buffer is free again by the next termination.
	scratch []byte
	// freeThunks recycles the one-shot job closures handed to the
	// runtime's scheduler (terminate / tentative / discard stages).
	freeThunks []*replicaThunk

	// backlog gauges in-flight terminations (multicast but unresolved).
	backlog Watermark
	// stats holds every counter this replica owns; Stats adds the ones the
	// speculative certifier and the backlog gauge keep themselves.
	stats Stats

	commitLog trace.CommitLog
	stopped   bool

	// Recovery state: while recovering, final deliveries land in
	// recoverBuf instead of being processed; lastGlobal tracks the highest
	// total-order sequence processed (the donor-readiness condition).
	recovering bool
	recoverBuf []bufferedDelivery
	lastGlobal uint64
}

// bufferedDelivery is one final delivery held back during a recovery
// transfer.
type bufferedDelivery struct {
	global  uint64
	payload []byte
}

// New builds the replica glue and installs its hooks on the stack and the
// server. Call Start after the stack has started.
func New(rt runtimeapi.Runtime, stack *gcs.Stack, server *db.Server, opts Options) *Replica {
	r := &Replica{
		rt:         rt,
		stack:      stack,
		server:     server,
		cert:       dbsm.NewCertifier(),
		site:       server.Site(),
		opts:       opts,
		recovering: opts.Recovering,
		backlog:    Watermark{High: opts.BacklogHigh, Low: opts.BacklogLow},
	}
	r.cert.Charge = func(items int) {
		rt.Charge(sim.Time(items) * certCostPerItem)
	}
	r.cert.MaxHistory = maxHistory
	members := stack.Members()
	sites := make([]dbsm.SiteID, len(members))
	for i, m := range members {
		sites[i] = dbsm.SiteID(m)
	}
	r.cert.TrackSites(sites)
	if opts.Optimistic {
		r.spec = dbsm.NewSpecCertifier(r.cert)
		r.tent = make(map[uint64]*tentTxn)
		r.done = make(map[uint64]bool)
		stack.OnOptimistic(r.onOptimistic)
		stack.OnOptimisticDiscard(r.onOptDiscard)
	}
	server.SetTerminator(r.terminate)
	stack.OnDeliver(r.onDeliver)
	if opts.GroupCount > 1 {
		r.x = newXmgr(r)
		r.cert.Veto = r.x.veto
		stack.OnRelay(r.x.onRelay)
		stack.OnViewChange(r.x.onViewChange)
		server.SectorFilter = r.x.localSectors
	}
	return r
}

// Start completes initialization (reserved for future periodic work).
func (r *Replica) Start() {}

// Stop ceases activity (site crash).
func (r *Replica) Stop() { r.stopped = true }

// CommitLog exposes the site's committed sequence for the off-line safety
// check.
func (r *Replica) CommitLog() *trace.CommitLog { return &r.commitLog }

// Certifier exposes the certification state (tests, introspection).
func (r *Replica) Certifier() *dbsm.Certifier { return r.cert }

// Stats reports the replica's termination counters.
func (r *Replica) Stats() Stats {
	s := r.stats
	s.Backpressure = r.backlog.Engages()
	s.BacklogPeak = int64(r.backlog.Peak())
	s.StaleAborts = r.cert.StaleAborts
	s.HistoryCapHits = r.cert.CapHits
	if r.spec != nil {
		s.Tentative = r.spec.Tentatives
		s.Rollbacks = r.spec.Rollbacks
	}
	return s
}

// XRecords exposes this site's cross-group transaction records for the
// off-line cross-group serialization check (nil outside group mode).
func (r *Replica) XRecords() []trace.XRecord {
	if r.x == nil {
		return nil
	}
	return r.x.records
}

// Recovering reports whether the replica is still buffering deliveries for
// a pending snapshot install.
func (r *Replica) Recovering() bool { return r.recovering }

// LastGlobal reports the highest total-order sequence this replica has
// processed — a donor must have passed the joiner's catch-up sequence
// before its snapshot covers everything the joiner will never receive.
func (r *Replica) LastGlobal() uint64 { return r.lastGlobal }

// CertSeq reports the certifier's commit sequence.
func (r *Replica) CertSeq() uint64 { return r.cert.Seq() }

// ReadSectors implements recovery.Donor: the donor-side disk cost of
// serving an exported snapshot's pages.
func (r *Replica) ReadSectors(n int, done func()) {
	r.server.Storage().ReadSectors(n, done)
}

// ExportSnapshot implements recovery.Donor: a deep snapshot of this
// replica's replicated-database state. sinceApplied is the joiner's applied
// horizon at crash; when the retained certification history still reaches
// back that far, only the pages written since are shipped, otherwise the
// whole written working set (every page the retained history knows about)
// goes on the wire.
func (r *Replica) ExportSnapshot(sinceApplied uint64) *recovery.Snapshot {
	st := r.cert.ExportState()
	if r.spec != nil {
		// An optimistic donor may hold unconfirmed tentative commits in
		// the shared certifier; a rollback after export would leave the
		// joiner with phantom commits. Ship only the finalized prefix —
		// the commit log and lastGlobal already cover exactly that.
		histLen, seq := r.spec.Finalized()
		for i := histLen; i < len(st.History); i++ {
			st.History[i] = dbsm.CommitRecord{}
		}
		st.History = st.History[:histLen]
		st.Seq = seq
	}
	snap := &recovery.Snapshot{
		Donor:       r.site,
		Global:      r.lastGlobal,
		Cert:        st,
		Commits:     append([]trace.CommitEntry(nil), r.commitLog.Entries()...),
		LastApplied: r.server.LastApplied(),
	}
	full := sinceApplied < st.Pruned
	pages := make(map[dbsm.TupleID]struct{})
	for i := range st.History {
		rec := &st.History[i]
		if !full && rec.Seq <= sinceApplied {
			continue
		}
		for _, id := range rec.WriteSet {
			pages[id] = struct{}{}
		}
	}
	snap.Pages = len(pages)
	if snap.Pages == 0 {
		snap.Pages = 1 // the log anchor page
	}
	snap.Bytes = st.WireSize() + 16*int64(len(snap.Commits)) + 4096*int64(snap.Pages)
	return snap
}

// InstallSnapshot implements recovery.Joiner: restart the server, seed
// certifier, commit log, and applied horizon from the donor's state, replay
// the buffered delta, and leave recovery mode. The work runs as a real job
// so its CPU cost lands on the recovering site; done fires afterwards.
func (r *Replica) InstallSnapshot(snap *recovery.Snapshot, done func()) {
	r.rt.StartJob(0, func() {
		r.installSnapshot(snap)
		if done != nil {
			done()
		}
	})
}

func (r *Replica) installSnapshot(snap *recovery.Snapshot) {
	if r.stopped || !r.recovering {
		return
	}
	r.server.Restart()
	r.cert.ImportState(snap.Cert)
	r.commitLog.Reset(snap.Commits)
	r.server.RestoreApplied(snap.LastApplied)
	if snap.Global > r.lastGlobal {
		r.lastGlobal = snap.Global
	}
	// Delta catch-up: replay deliveries that were certified group-wide
	// while the transfer was in flight. Buffered entries at or below the
	// snapshot's horizon are already reflected in it. No tentative
	// certification ever ran for these (speculation is suppressed while
	// recovering), so the speculative queue is empty and Final certifies
	// them directly against the imported state.
	buf := r.recoverBuf
	r.recoverBuf = nil
	r.recovering = false
	prev := snap.Global
	for _, bd := range buf {
		if bd.global <= snap.Global {
			continue
		}
		if bd.global != prev+1 {
			// The stack delivers gap-free, so a hole means deliveries
			// the snapshot should have covered are missing (e.g. a
			// transfer raced a readmission). Count each as a drop —
			// CertDrops is never silent and fails the campaign verdict
			// — instead of diverging quietly.
			r.stats.CertDrops += int64(bd.global - prev - 1)
		}
		prev = bd.global
		r.stats.DeltaApplied++
		r.applyFinal(bd.global, bd.payload)
	}
}

// applyFinal certifies and resolves one final delivery outside the
// two-stage pipeline (recovery catch-up: no tentative state can exist).
func (r *Replica) applyFinal(global uint64, payload []byte) {
	tc, err := dbsm.Unmarshal(payload)
	if err != nil {
		r.stats.CertDrops++
		return
	}
	r.chargeUnmarshal(len(payload))
	r.stats.Delivered++
	if global > r.lastGlobal {
		r.lastGlobal = global
	}
	var out dbsm.Outcome
	if r.spec != nil {
		out, _ = r.spec.Final(tc)
	} else {
		out = r.cert.Certify(tc)
		r.observe(tc)
	}
	r.resolve(tc, out, false)
}

// observe hands a final delivery's low-water mark to the certifier, through
// the speculative wrapper when there is one so only finalized entries prune.
func (r *Replica) observe(tc *dbsm.TxnCert) {
	if r.spec != nil {
		r.spec.Observe(tc)
		return
	}
	r.cert.Observe(tc)
}

// replicaThunk is a pooled one-shot job: the closure handed to the runtime
// scheduler is bound once at allocation, so scheduling a pipeline stage
// allocates nothing in steady state.
type replicaThunk struct {
	r       *Replica
	stage   func(r *Replica, txn *db.Txn, payload []byte)
	txn     *db.Txn
	payload []byte
	fire    func()
}

func (th *replicaThunk) run() {
	r, stage, txn, payload := th.r, th.stage, th.txn, th.payload
	th.stage, th.txn, th.payload = nil, nil, nil
	r.freeThunks = append(r.freeThunks, th)
	if r.stopped {
		return
	}
	stage(r, txn, payload)
}

// schedule queues a pipeline stage as its own zero-delay job.
func (r *Replica) schedule(stage func(*Replica, *db.Txn, []byte), txn *db.Txn, payload []byte) {
	var th *replicaThunk
	if n := len(r.freeThunks); n > 0 {
		th = r.freeThunks[n-1]
		r.freeThunks[n-1] = nil
		r.freeThunks = r.freeThunks[:n-1]
	} else {
		th = &replicaThunk{r: r}
		th.fire = th.run
	}
	th.stage, th.txn, th.payload = stage, txn, payload
	r.rt.StartJob(0, th.fire)
}

// terminate is the server's distributed termination hook: gather the
// transaction's sets and values and atomically multicast them. The hook is
// invoked from simulated-job context; the marshaling and multicast run as a
// real job so their cost occupies the CPU.
func (r *Replica) terminate(t *db.Txn) {
	if r.stopped {
		return
	}
	r.schedule(stageTerminate, t, nil)
}

func stageTerminate(r *Replica, t *db.Txn, _ []byte) {
	tc := t.CertInfo()
	if r.x != nil {
		r.x.terminate(t, tc)
		return
	}
	wire := tc.MarshalTo(r.scratch)
	r.scratch = wire
	r.rt.Charge(sim.Time(len(wire)) * marshalCostPerByte)
	if !r.stack.Multicast(wire) {
		// The bounded transmit queue is full: refuse the termination
		// instead of queueing without bound. The server turns this into an
		// explicit rejection the client can retry.
		r.stats.MulticastRefused++
		r.server.RejectPending(t.TID)
		return
	}
	if r.backlog.Add(1) {
		r.server.SetBackpressure(r.backlog.Engaged())
	}
}

// chargeUnmarshal accounts the CPU cost of decoding a payload.
func (r *Replica) chargeUnmarshal(n int) {
	r.rt.Charge(sim.Time(n) * marshalCostPerByte)
}

// onOptimistic receives one tentatively-delivered message. The upcall runs
// inside the stack's receive job, where accrued CPU cost would delay the
// sequencer's ordering announcement — so the certification work is handed
// off to its own job and only the scheduling happens here.
func (r *Replica) onOptimistic(o gcs.OptDelivery) {
	if r.stopped {
		return
	}
	r.schedule(stageTentative, nil, o.Payload)
}

func stageTentative(r *Replica, _ *db.Txn, payload []byte) { r.tentative(payload) }

// tentative is stage one of the optimistic pipeline: decode, certify
// speculatively, and act on the verdict while the sequencer's round is still
// in flight.
func (r *Replica) tentative(payload []byte) {
	if r.stopped || r.recovering {
		// While recovering there is nothing to speculate against: the
		// certifier state is in transit. The final delivery is buffered
		// and certified at install, so skipping here loses nothing.
		return
	}
	if r.x != nil {
		// Group mode: prepares and decisions are final-only events — they
		// mutate the reservation table, which tentative outcomes depend
		// on, so speculating on them would be unsound. Only plain
		// transactions speculate.
		if len(payload) == 0 || payload[0] != xgroup.MsgTxn {
			return
		}
		payload = payload[1:]
	}
	tid, err := dbsm.PeekTID(payload)
	if err != nil {
		r.stats.CertDrops++
		return
	}
	if r.done[tid] {
		// Finalized before this job ran (sequencer-side delivery), or
		// discarded at a view change: the message is settled, nothing
		// to speculate on — and nothing to decode.
		delete(r.done, tid)
		return
	}
	tc, err := dbsm.Unmarshal(payload)
	if err != nil {
		r.stats.CertDrops++
		return
	}
	r.chargeUnmarshal(len(payload))
	st := &tentTxn{tc: tc}
	st.out = r.spec.Tentative(tc)
	r.tent[tc.TID] = st
	r.speculate(st)
}

// onOptDiscard learns that a tentatively-delivered message was discarded at
// a view change and will never reach final delivery: its speculative state
// must be cancelled or it would wedge the queue head and force a rollback
// on every subsequent final delivery.
func (r *Replica) onOptDiscard(o gcs.OptDelivery) {
	if r.stopped {
		return
	}
	r.schedule(stageDiscard, nil, o.Payload)
}

func stageDiscard(r *Replica, _ *db.Txn, payload []byte) { r.discard(payload) }

// discard cancels the speculation on one never-to-finalize message.
func (r *Replica) discard(payload []byte) {
	if r.stopped || r.recovering {
		return // no speculation exists while recovering
	}
	if r.x != nil {
		if len(payload) == 0 || payload[0] != xgroup.MsgTxn {
			return // prepares/decisions were never speculated on
		}
		payload = payload[1:]
	}
	//lint:statcount-ok the tentative stage saw the same bytes and counted the drop
	tid, err := dbsm.PeekTID(payload)
	if err != nil {
		return // never speculated on: the tentative stage dropped it
	}
	st := r.tent[tid]
	if st == nil {
		// The tentative job has not run yet: make it skip this message.
		r.done[tid] = true
		return
	}
	delete(r.tent, tid)
	r.respeculate(r.spec.Invalidate(tid))
}

// speculate acts on a tentative verdict: local transactions learn their
// certification decision one ordering round early, remote commits pre-write
// their rows to scratch storage so the final install is a single
// commit-record sector.
func (r *Replica) speculate(st *tentTxn) {
	if st.tc.Site == r.site {
		r.server.NoteCertDecision(st.tc.TID)
		return
	}
	if !st.out.Commit || st.preApplied {
		return
	}
	st.preApplied = true
	r.stats.PreApplied++
	r.server.PreApplyRemote(st.tc.WriteSet)
}

// onDeliver processes one totally-ordered certification message: certify,
// then install or resolve. This runs identically — and decides identically —
// at every replica.
func (r *Replica) onDeliver(d gcs.Delivery) {
	if r.stopped {
		return
	}
	if r.recovering {
		// The snapshot is still in transit: hold the delivery for the
		// delta catch-up. The payload aliases the wire buffer, which
		// receivers may retain (zero-copy contract).
		r.recoverBuf = append(r.recoverBuf, bufferedDelivery{global: d.Global, payload: d.Payload})
		return
	}
	if d.Global > r.lastGlobal {
		r.lastGlobal = d.Global
	}
	payload := d.Payload
	if r.x != nil {
		// Group mode: dispatch on the stream tag. Prepares and decisions
		// are cross-group events; plain transactions continue below.
		if len(payload) == 0 {
			r.stats.CertDrops++
			return
		}
		switch payload[0] {
		case xgroup.MsgTxn:
			payload = payload[1:]
		case xgroup.MsgPrepare, xgroup.MsgDecide:
			// onStream counts delivered only after a successful parse,
			// mirroring the classic path below.
			r.x.onStream(payload)
			return
		default:
			r.stats.CertDrops++
			return
		}
	}
	if r.spec != nil {
		r.finalize(payload)
		return
	}
	tc, err := dbsm.Unmarshal(payload)
	if err != nil {
		r.stats.CertDrops++
		return
	}
	r.stats.Delivered++
	r.chargeUnmarshal(len(payload))
	out := r.cert.Certify(tc)
	r.observe(tc)
	r.resolve(tc, out, false)
}

// finalize is stage two of the optimistic pipeline: confirm the queued
// tentative verdict when the final order matches (the fast path decodes
// nothing and certifies nothing), or roll the speculation back and
// re-certify when it diverges. payload is the certification message bytes
// (group-mode stream tag already stripped).
func (r *Replica) finalize(payload []byte) {
	// Malformed payloads are not counted here: the tentative stage sees
	// every payload this one does (same bytes) and already counted the
	// drop — counting both stages would inflate CertDrops 2x relative to
	// the conservative protocol.
	//lint:statcount-ok tentative stage sees the same bytes and already counted
	tid, err := dbsm.PeekTID(payload)
	if err != nil {
		return
	}
	st := r.tent[tid]
	var tc *dbsm.TxnCert
	if st != nil {
		tc = st.tc
	} else {
		// The tentative stage has not seen this payload — the final
		// order was assigned in the receive job itself (sequencer), or
		// the tentative decode failed. Decode now and mark the message
		// finalized so a late tentative job skips it. On decode failure
		// done[tid] stays unset, so the late tentative job decodes the
		// same bytes, fails the same way, and counts the drop once.
		//lint:statcount-ok the late tentative job re-decodes and counts this drop
		tc, err = dbsm.Unmarshal(payload)
		if err != nil {
			return
		}
		r.chargeUnmarshal(len(payload))
		r.done[tid] = true
	}
	r.stats.Delivered++
	out, rolled := r.spec.Final(tc)
	delete(r.tent, tid)
	r.respeculate(rolled)
	if st != nil && st.preApplied && !out.Commit {
		r.stats.PreApplyWasted++
	}
	r.resolve(tc, out, st != nil && st.preApplied)
}

// respeculate re-runs the tentative stage for a rolled-back suffix, in its
// original tentative order. Scratch pre-writes survive — the written data
// does not depend on the verdict — so only the certification decisions are
// recomputed.
func (r *Replica) respeculate(rolled []*dbsm.TxnCert) {
	for _, rtc := range rolled {
		st := r.tent[rtc.TID]
		if st == nil {
			continue
		}
		st.out = r.spec.Tentative(rtc)
		r.stats.Recertified++
		r.speculate(st)
	}
}

// resolve carries a final certification outcome to the server: local
// transactions learn their fate, committed remote write-sets are installed.
func (r *Replica) resolve(tc *dbsm.TxnCert, out dbsm.Outcome, preApplied bool) {
	if out.Commit {
		r.commitLog.Append(out.Seq, tc.TID)
	}
	if tc.Site == r.site {
		if r.server.ResolveLocal(tc.TID, out.Commit, out.Seq) {
			// One in-flight termination resolved: drain the backlog gauge.
			// Orphans (below) never counted an increment — their increment
			// belonged to a previous incarnation's gauge — so only this
			// path decrements.
			if r.backlog.Add(-1) {
				r.server.SetBackpressure(r.backlog.Engaged())
			}
			return
		}
		// Orphaned local transaction: the incarnation that submitted it
		// crashed, so no pending-certification entry exists and nobody
		// will write its data back locally. If the group committed it,
		// install it like a remote write-set or this site's storage
		// silently diverges from the replicas that applied it.
		if !out.Commit {
			return
		}
		preApplied = false
	}
	if !out.Commit {
		return
	}
	if preApplied {
		r.server.ApplyRemotePrepared(tc, out.Seq)
		return
	}
	r.server.ApplyRemote(tc, out.Seq)
}
