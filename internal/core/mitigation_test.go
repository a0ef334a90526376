package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/gcs"
)

// The Section 5.3 mitigation for sequencer buffer-share exhaustion:
// "increasing available buffer space".
func TestSequencerMitigations(t *testing.T) {
	base := Config{
		Sites: 3, Clients: 300, TotalTxns: 1200, Seed: 41,
		Faults:   faults.Config{Loss: faults.Loss{Kind: faults.LossRandom, Rate: 0.05}},
		GCSTweak: func(c *gcs.Config) { c.BufferBytes = 24 * 1024 }, // tight pool
	}
	tight := run(t, base)
	if tight.SafetyErr != nil {
		t.Fatalf("safety: %v", tight.SafetyErr)
	}
	if tight.GCS.Blocked == 0 {
		t.Skip("tight pool did not block at this scale; mitigation not measurable")
	}

	bigger := base
	bigger.GCSTweak = func(c *gcs.Config) { c.BufferBytes = 512 * 1024 }
	relaxed := run(t, bigger)
	if relaxed.SafetyErr != nil {
		t.Fatalf("safety: %v", relaxed.SafetyErr)
	}
	if relaxed.GCS.BlockedTime >= tight.GCS.BlockedTime {
		t.Fatalf("bigger buffers did not reduce blocking: %v vs %v",
			relaxed.GCS.BlockedTime, tight.GCS.BlockedTime)
	}
}
