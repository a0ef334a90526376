package core

import (
	"repro/internal/dbsm"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// ResourceSample is one observation of the queues and occupancy of a site's
// resources. The paper logs "the usage and length of queues for each
// resource ... to examine in detail the status of the server" (Section 3.1);
// this sampler provides that detail as a time series.
type ResourceSample struct {
	At   sim.Time
	Site dbsm.SiteID
	// CPUQueue is the number of queued (not running) jobs across the
	// site's processors.
	CPUQueue int
	// CPUBusy counts processors currently busy.
	CPUBusy int
	// DiskQueue is the number of queued sector operations.
	DiskQueue int
	// SendQueue and UnstableMsgs describe the protocol stack's sender
	// state (zero for centralized configurations).
	SendQueue    int
	UnstableMsgs int
	// Blocked reports whether the stack is currently flow-blocked.
	Blocked bool
}

// ResourceLog accumulates samples for all sites.
type ResourceLog struct {
	samples []ResourceSample
}

// Samples returns the recorded series.
func (l *ResourceLog) Samples() []ResourceSample { return l.samples }

// SiteSeries filters samples of one site.
func (l *ResourceLog) SiteSeries(site dbsm.SiteID) []ResourceSample {
	out := make([]ResourceSample, 0, len(l.samples)/4)
	for _, s := range l.samples {
		if s.Site == site {
			out = append(out, s)
		}
	}
	return out
}

// MaxCPUQueue reports the high-water CPU queue across all samples of a site.
func (l *ResourceLog) MaxCPUQueue(site dbsm.SiteID) int {
	m := 0
	for _, s := range l.samples {
		if s.Site == site && s.CPUQueue > m {
			m = s.CPUQueue
		}
	}
	return m
}

// StartResourceSampler begins periodic resource sampling into the returned
// log. Call before Run; period defaults to 500ms when zero.
func (m *Model) StartResourceSampler(period sim.Time) *ResourceLog {
	if period <= 0 {
		period = 500 * sim.Millisecond
	}
	log := &ResourceLog{}
	var tick func()
	tick = func() {
		for _, s := range m.sites {
			if s.Life.State() != recovery.StateUp {
				continue
			}
			sample := ResourceSample{At: m.k.Now(), Site: s.ID}
			for i := 0; i < s.CPUs.N(); i++ {
				cpu := s.CPUs.CPU(i)
				sample.CPUQueue += cpu.QueueLen()
				if cpu.Busy() {
					sample.CPUBusy++
				}
			}
			sample.DiskQueue = s.Server.Storage().QueueLen()
			if s.Stack != nil {
				q, u, _, _ := s.Stack.FlowState()
				sample.SendQueue = q
				sample.UnstableMsgs = u
				sample.Blocked = s.Stack.BlockedNow()
			}
			log.samples = append(log.samples, sample)
		}
		m.k.Schedule(period, tick)
	}
	m.k.Schedule(period, tick)
	return log
}
