package dbsm

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTupleIDEncoding(t *testing.T) {
	id := MakeTupleID(7, 123456)
	if id.Table() != 7 || id.Row() != 123456 {
		t.Fatalf("id = %x: table=%d row=%d", uint64(id), id.Table(), id.Row())
	}
	// Row truncation to 48 bits.
	big := MakeTupleID(1, 1<<60|42)
	if big.Row() != 42 {
		t.Fatalf("row = %d, want 42", big.Row())
	}
}

func TestItemSetSortedDedup(t *testing.T) {
	s := NewItemSet(MakeTupleID(2, 5), MakeTupleID(1, 9), MakeTupleID(2, 5), MakeTupleID(1, 1))
	if len(s) != 3 {
		t.Fatalf("len = %d, want 3 (dedup)", len(s))
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		t.Fatal("not sorted")
	}
	s = s.Add(MakeTupleID(1, 5))
	s = s.Add(MakeTupleID(1, 5)) // duplicate
	if len(s) != 4 {
		t.Fatalf("len after Add = %d, want 4", len(s))
	}
	if !s.Contains(MakeTupleID(1, 5)) || s.Contains(MakeTupleID(9, 9)) {
		t.Fatal("Contains wrong")
	}
}

func TestIntersects(t *testing.T) {
	a := NewItemSet(MakeTupleID(1, 1), MakeTupleID(1, 5), MakeTupleID(2, 3))
	b := NewItemSet(MakeTupleID(1, 2), MakeTupleID(2, 3))
	if !a.Intersects(b) {
		t.Fatal("common tuple not detected")
	}
	c := NewItemSet(MakeTupleID(1, 2), MakeTupleID(3, 1))
	if a.Intersects(c) {
		t.Fatal("false intersection")
	}
	if a.Intersects(nil) || ItemSet(nil).Intersects(a) {
		t.Fatal("empty set intersects")
	}
}

// Property: Intersects is symmetric and agrees with a naive n^2 check.
func TestIntersectsProperty(t *testing.T) {
	naive := func(a, b ItemSet) bool {
		for _, x := range a {
			for _, y := range b {
				if x == y {
					return true
				}
			}
		}
		return false
	}
	f := func(ar, br []uint16) bool {
		var a, b ItemSet
		for _, v := range ar {
			a = append(a, MakeTupleID(uint16(v%4), uint64(v%16)))
		}
		for _, v := range br {
			b = append(b, MakeTupleID(uint16(v%4), uint64(v%16)))
		}
		a, b = NewItemSet(a...), NewItemSet(b...)
		want := naive(a, b)
		return a.Intersects(b) == want && b.Intersects(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	tc := &TxnCert{
		TID:           MakeTID(3, 77),
		Site:          3,
		LastCommitted: 41,
		ReadSet:       NewItemSet(MakeTupleID(1, 1), MakeTupleID(2, 9)),
		WriteSet:      NewItemSet(MakeTupleID(2, 9)),
		WriteBytes:    655,
	}
	wire := tc.Marshal()
	if len(wire) != tc.MarshaledSize() {
		t.Fatalf("wire size %d != MarshaledSize %d", len(wire), tc.MarshaledSize())
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.TID != tc.TID || got.Site != tc.Site || got.LastCommitted != tc.LastCommitted ||
		got.WriteBytes != tc.WriteBytes || len(got.ReadSet) != 2 || len(got.WriteSet) != 1 {
		t.Fatalf("got %+v", got)
	}
	if got.ReadSet[1] != MakeTupleID(2, 9) {
		t.Fatal("read set corrupted")
	}
}

func TestUnmarshalRejectsTruncated(t *testing.T) {
	tc := &TxnCert{TID: 1, ReadSet: NewItemSet(MakeTupleID(1, 1)), WriteBytes: 10}
	wire := tc.Marshal()
	for cut := 0; cut < len(wire); cut++ {
		if _, err := Unmarshal(wire[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
}

func TestMakeTID(t *testing.T) {
	tid := MakeTID(5, 99)
	if TIDSite(tid) != 5 {
		t.Fatalf("site = %d", TIDSite(tid))
	}
}

func TestCertifyCommitAndConflict(t *testing.T) {
	c := NewCertifier()
	w1 := NewItemSet(MakeTupleID(1, 10))
	out := c.Certify(&TxnCert{TID: 1, ReadSet: w1, WriteSet: w1, LastCommitted: 0})
	if !out.Commit || out.Seq != 1 {
		t.Fatalf("first txn: %+v", out)
	}
	// Concurrent reader of tuple (1,10): conflicts with txn 1.
	out2 := c.Certify(&TxnCert{
		TID: 2, LastCommitted: 0,
		ReadSet:  NewItemSet(MakeTupleID(1, 10), MakeTupleID(1, 11)),
		WriteSet: NewItemSet(MakeTupleID(1, 11)),
	})
	if out2.Commit {
		t.Fatal("conflicting concurrent txn committed")
	}
	// Same read-set but serialized after txn 1: no conflict.
	out3 := c.Certify(&TxnCert{
		TID: 3, LastCommitted: 1,
		ReadSet:  NewItemSet(MakeTupleID(1, 10)),
		WriteSet: NewItemSet(MakeTupleID(1, 10)),
	})
	if !out3.Commit || out3.Seq != 2 {
		t.Fatalf("serialized txn: %+v", out3)
	}
}

func TestCertifyReadOnlyNeverRetained(t *testing.T) {
	c := NewCertifier()
	out := c.Certify(&TxnCert{TID: 1, ReadSet: NewItemSet(MakeTupleID(1, 1))})
	if !out.Commit {
		t.Fatal("read-only must commit")
	}
	if c.HistoryLen() != 0 {
		t.Fatal("read-only txn should leave no write-set history")
	}
}

func TestCertifierDeterministicAcrossReplicas(t *testing.T) {
	// Feed the same ordered stream to two certifiers: identical verdicts.
	mk := func() []*TxnCert {
		var txns []*TxnCert
		for i := 0; i < 100; i++ {
			rs := NewItemSet(MakeTupleID(1, uint64(i%7)), MakeTupleID(2, uint64(i%3)))
			ws := NewItemSet(MakeTupleID(1, uint64(i%7)))
			txns = append(txns, &TxnCert{
				TID: uint64(i), ReadSet: rs, WriteSet: ws,
				LastCommitted: uint64(max(0, i-5)),
			})
		}
		return txns
	}
	a, b := NewCertifier(), NewCertifier()
	sa, sb := mk(), mk()
	for i := range sa {
		// LastCommitted beyond current seq means "saw everything": clamp.
		if sa[i].LastCommitted > a.Seq() {
			sa[i].LastCommitted = a.Seq()
			sb[i].LastCommitted = b.Seq()
		}
		oa, ob := a.Certify(sa[i]), b.Certify(sb[i])
		if oa != ob {
			t.Fatalf("replicas diverged at %d: %+v vs %+v", i, oa, ob)
		}
	}
}

// TestCertifierChargeHook pins the item counts the indexed certifier charges
// per call. The replica multiplies them by a per-item cost, so they are the
// simulated CPU time of certification: a commit charges its lookups plus its
// index insertions, a conflict abort stops charging at the first conflicting
// read, and aborts decided before the conflict test charge nothing.
func TestCertifierChargeHook(t *testing.T) {
	id := MakeTupleID
	// Every case starts from a certifier whose history holds (5,9)
	// written at seq 1 and (7,1),(7,2) written at seq 2; with
	// MaxHistory 1 the second commit prunes the first.
	setup := func(maxHistory int) *Certifier {
		c := NewCertifier()
		c.MaxHistory = maxHistory
		c.Certify(&TxnCert{TID: 1, WriteSet: NewItemSet(id(5, 9))})
		c.Certify(&TxnCert{TID: 2, LastCommitted: 1, WriteSet: NewItemSet(id(7, 1), id(7, 2))})
		return c
	}
	reads := NewItemSet(id(1, 1), id(2, 1), id(5, 9), id(6, 1)) // (5,9) is 3rd
	for _, tc := range []struct {
		name       string
		maxHistory int
		run        func(c *Certifier)
		want       int
	}{
		{"commit", 0, func(c *Certifier) {
			c.Certify(&TxnCert{TID: 3, LastCommitted: 2, ReadSet: reads, WriteSet: NewItemSet(id(1, 1), id(2, 1))})
		}, 4 + 2},
		{"read-only commit", 0, func(c *Certifier) {
			c.Certify(&TxnCert{TID: 3, LastCommitted: 2, ReadSet: reads})
		}, 4},
		{"blind write commit", 0, func(c *Certifier) {
			c.Certify(&TxnCert{TID: 3, WriteSet: NewItemSet(id(5, 9), id(6, 6), id(8, 8))})
		}, 3},
		{"conflict abort", 0, func(c *Certifier) {
			c.Certify(&TxnCert{TID: 3, LastCommitted: 0, ReadSet: reads, WriteSet: reads})
		}, 3},
		{"conflict abort on first read", 0, func(c *Certifier) {
			c.Certify(&TxnCert{TID: 3, LastCommitted: 1, ReadSet: NewItemSet(id(7, 2), id(9, 9))})
		}, 1},
		{"stale snapshot abort", 1, func(c *Certifier) {
			c.Certify(&TxnCert{TID: 3, LastCommitted: 0, ReadSet: reads, WriteSet: reads})
		}, 0},
		{"veto abort", 0, func(c *Certifier) {
			c.Veto = func(*TxnCert) bool { return true }
			c.Certify(&TxnCert{TID: 3, LastCommitted: 2, ReadSet: reads, WriteSet: reads})
		}, 0},
		{"vote for", 0, func(c *Certifier) {
			c.CheckOnly(&TxnCert{TID: 3, LastCommitted: 2, ReadSet: reads, WriteSet: reads})
		}, 4},
		{"vote against", 0, func(c *Certifier) {
			c.CheckOnly(&TxnCert{TID: 3, LastCommitted: 0, ReadSet: reads, WriteSet: reads})
		}, 3},
		{"decide", 0, func(c *Certifier) {
			c.ForceCommit(&TxnCert{TID: 3, LastCommitted: 0, ReadSet: reads, WriteSet: NewItemSet(id(1, 1), id(2, 1))})
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := setup(tc.maxHistory)
			charged := 0
			c.Charge = func(items int) { charged += items }
			tc.run(c)
			if charged != tc.want {
				t.Fatalf("charged %d items, want %d", charged, tc.want)
			}
		})
	}
}

// Property: certification outcome is independent of set construction order.
func TestCertifyOrderInsensitiveProperty(t *testing.T) {
	f := func(reads []uint8, writes []uint8, perm uint8) bool {
		mk := func(vals []uint8, shift int) ItemSet {
			ids := make([]TupleID, len(vals))
			for i, v := range vals {
				ids[i] = MakeTupleID(uint16(v%3), uint64(v>>2)+uint64(shift))
			}
			return NewItemSet(ids...)
		}
		rs := mk(reads, 0)
		ws := mk(writes, 0)
		c1, c2 := NewCertifier(), NewCertifier()
		seed := NewItemSet(MakeTupleID(0, 1), MakeTupleID(1, 2))
		c1.Certify(&TxnCert{TID: 1, ReadSet: seed, WriteSet: seed})
		c2.Certify(&TxnCert{TID: 1, ReadSet: seed, WriteSet: seed})
		// Reverse input order for c2's set construction.
		rev := make([]uint8, len(reads))
		for i, v := range reads {
			rev[len(reads)-1-i] = v
		}
		rs2 := mk(rev, 0)
		o1 := c1.Certify(&TxnCert{TID: 2, ReadSet: rs, WriteSet: ws})
		o2 := c2.Certify(&TxnCert{TID: 2, ReadSet: rs2, WriteSet: ws})
		return o1 == o2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
