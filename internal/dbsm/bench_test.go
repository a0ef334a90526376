package dbsm

import (
	"math/rand"
	"strconv"
	"testing"
)

// BenchmarkCertifierHorizon measures steady-state certification with horizon
// pruning: every message's snapshot, and its site's low-water mark, trail
// the current sequence by a fixed lag, so each Certify plus Observe installs
// one write-set and prunes one, and the retained window holds lag entries.
// ns/txn is the per-message cost (conflict test, install and pruning);
// allocs/op is the install's write-set copy plus index growth.
func BenchmarkCertifierHorizon(b *testing.B) {
	for _, lag := range []int{10, 100, 1000} {
		b.Run("lag-"+strconv.Itoa(lag), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			set := func(n int) ItemSet {
				ids := make([]TupleID, n)
				for i := range ids {
					ids[i] = MakeTupleID(uint16(rng.Intn(9)+1), uint64(rng.Intn(1<<28)))
				}
				return NewItemSet(ids...)
			}
			// A pool of disjoint-ish sets, cycled so the loop itself does
			// not allocate.
			reads, writes := make([]ItemSet, 4096), make([]ItemSet, 4096)
			for i := range reads {
				reads[i], writes[i] = set(20), set(10)
			}
			c := NewCertifier()
			c.TrackSites([]SiteID{1})
			t := &TxnCert{TID: MakeTID(1, 0), Site: 1}
			certify := func(i int) {
				t.TID = MakeTID(1, uint32(i))
				t.LastCommitted = 0
				if s := c.Seq(); s > uint64(lag) {
					t.LastCommitted = s - uint64(lag)
				}
				t.LowWater = t.LastCommitted
				t.ReadSet, t.WriteSet = reads[i%len(reads)], writes[i%len(writes)]
				c.Certify(t)
				c.Observe(t)
			}
			for i := 0; i < 4*lag+1000; i++ {
				certify(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				certify(4*lag + 1000 + i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/txn")
			if c.HistoryLen() > lag+1 || c.StaleAborts != 0 {
				b.Fatalf("window %d for lag %d, %d stale aborts", c.HistoryLen(), lag, c.StaleAborts)
			}
		})
	}
}
