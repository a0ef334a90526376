package gcs

// This file holds the sender-side accounting behind the sequencer bottleneck
// the paper identifies in Section 5.3: "The problem is mitigated by
// increasing available buffer space or by allocating a dedicated sequencer
// process. In the future, it should be solved by avoiding the centralized
// sequencer."
//
// Increasing buffer space is Config.BufferBytes. The accessors below expose
// the flow-control state the core model's resource sampler records, so the
// buffer-share exhaustion is observable as a time series.

// BlockedNow reports whether the local sender is currently blocked by flow
// control (buffer share, window, or rate).
func (s *Stack) BlockedNow() bool { return s.rm.blocked }

// FlowState exposes the sender-side flow control state for diagnosis: queued
// chunks awaiting transmission, unstable transmitted chunks, and the local
// stability horizon of this member's own stream.
func (s *Stack) FlowState() (queued, unstable int, stableSelf, sendSeq uint64) {
	return len(s.rm.outQ), len(s.rm.sendBuf), s.rm.stableSelf, s.rm.sendSeq
}
