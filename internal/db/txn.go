package db

import (
	"repro/internal/dbsm"
	"repro/internal/sim"
)

// OpKind classifies transaction operations (Section 3.1): fetch a data item,
// do some processing, or write back a data item.
type OpKind int

// Operation kinds.
const (
	OpFetch OpKind = iota + 1
	OpProcess
	OpWrite
)

// Op is one step of a transaction's execution.
type Op struct {
	Kind OpKind
	// Item is the tuple accessed by fetch/write operations.
	Item dbsm.TupleID
	// CPU is the processing time of an OpProcess step.
	CPU sim.Time
	// Size is the value size in bytes of an OpWrite step.
	Size int
}

// Outcome is a transaction's fate.
type Outcome int

// Transaction outcomes. AbortLock is a local write-write conflict (a lock
// holder committed while this transaction waited, or a certified transaction
// preempted it); AbortCert is a certification failure; AbortUser is an
// application rollback (TPC-C's 1% intentional new-order aborts); AbortCrash
// means the site died.
const (
	Committed Outcome = iota + 1
	AbortLock
	AbortCert
	AbortUser
	AbortCrash
	// Rejected is an explicit admission-control refusal: the server (or the
	// replication stack beneath it) was overloaded and declined the
	// transaction without executing it to completion. Unlike the aborts it
	// carries a retry invitation — the client may resubmit the same
	// transaction (same TID) after a backoff.
	Rejected
)

func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case AbortLock:
		return "abort-lock"
	case AbortCert:
		return "abort-cert"
	case AbortUser:
		return "abort-user"
	case AbortCrash:
		return "abort-crash"
	case Rejected:
		return "rejected"
	default:
		return "unknown"
	}
}

// Txn is one transaction instance flowing through a server.
type Txn struct {
	// TID is the global transaction identifier.
	TID uint64
	// Class labels the workload class (e.g. "payment-long") for the abort
	// rate breakdowns of Tables 1 and 2.
	Class string
	// ReadOnly transactions skip the distributed termination protocol;
	// their latency is unaffected by replication (Section 5.1).
	ReadOnly bool
	// Ops is the execution script.
	Ops []Op
	// ReadSet and WriteSet are known before execution starts, enabling
	// atomic lock acquisition without deadlock detection (Section 3.1).
	ReadSet  dbsm.ItemSet
	WriteSet dbsm.ItemSet
	// WriteBytes is the total size of written values.
	WriteBytes int
	// CommitCPU is the processing cost of the commit operation itself
	// (profiled at just under 2ms for all classes).
	CommitCPU sim.Time
	// UserAbort marks a transaction the application rolls back at the end
	// of execution (TPC-C's 1% new-order aborts).
	UserAbort bool

	// Done receives the final outcome exactly once.
	Done func(*Txn, Outcome)

	// Measurement timestamps, filled by the server.
	SubmitAt    sim.Time
	LocksAt     sim.Time // when locks were granted
	CommitReqAt sim.Time // when the commit request entered termination
	EndAt       sim.Time

	// Snapshot is the certification sequence applied locally when the
	// transaction started: the concurrency horizon for certification.
	Snapshot uint64

	// internal state
	opIdx     int
	aborted   bool
	certified bool
	decided   bool // first certification verdict already sampled
	finished  bool
	holding   bool // currently holds its write locks
	server    *Server
	stepFn    func() // single pipeline continuation, bound once at Submit
}

// CertInfo builds the certification message for this transaction. Site is
// derived from the TID, as the decoder does, and LowWater is the submitting
// server's low-water mark, never above the transaction's own snapshot.
func (t *Txn) CertInfo() *dbsm.TxnCert {
	mark := t.Snapshot
	if t.server != nil {
		mark = min(mark, t.server.LowWater())
	}
	return &dbsm.TxnCert{
		TID:           t.TID,
		Site:          dbsm.TIDSite(t.TID),
		LastCommitted: t.Snapshot,
		LowWater:      mark,
		ReadSet:       t.ReadSet,
		WriteSet:      t.WriteSet,
		WriteBytes:    t.WriteBytes,
	}
}

// Latency reports submit-to-outcome latency (valid after completion).
func (t *Txn) Latency() sim.Time { return t.EndAt - t.SubmitAt }

// ResetForRetry clears the per-attempt execution state so the same
// transaction instance — same TID, same operation script, same sets — can be
// resubmitted after a rejection. Identity surviving the retry is what makes
// resubmission idempotent: a duplicate of an already-active TID is refused at
// admission, and the off-line checker verifies no TID ever commits twice.
func (t *Txn) ResetForRetry() {
	t.opIdx = 0
	t.aborted = false
	t.certified = false
	t.decided = false
	t.finished = false
	t.holding = false
	t.server = nil
	t.stepFn = nil
	t.SubmitAt = 0
	t.LocksAt = 0
	t.CommitReqAt = 0
	t.EndAt = 0
	t.Snapshot = 0
}
