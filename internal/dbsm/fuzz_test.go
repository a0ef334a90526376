package dbsm

import (
	"encoding/binary"
	"testing"
)

// hostileLengthCert builds a certification message whose header carries the
// given (possibly hostile) nr/nw/writeBytes length fields over a body of
// bodyLen zero bytes.
func hostileLengthCert(nr, nw, wb uint32, bodyLen int) []byte {
	b := make([]byte, certHeader+bodyLen)
	binary.BigEndian.PutUint64(b[0:8], 1)    // TID
	binary.BigEndian.PutUint32(b[8:12], 2)   // low-water lag
	binary.BigEndian.PutUint64(b[12:20], 3)  // LastCommitted
	binary.BigEndian.PutUint32(b[20:24], nr) // |ReadSet|
	binary.BigEndian.PutUint32(b[24:28], nw) // |WriteSet|
	binary.BigEndian.PutUint32(b[28:32], wb) // WriteBytes
	return b
}

// FuzzUnmarshal asserts that no input — in particular hostile length fields
// that would overflow the offset arithmetic if multiplied before validation —
// can panic the decoder, and that every accepted input re-marshals
// consistently. The seed corpus pins the overflow-shaped headers.
func FuzzUnmarshal(f *testing.F) {
	// Well-formed message.
	good := (&TxnCert{
		TID: 9, Site: 1, LastCommitted: 5,
		ReadSet:    NewItemSet(MakeTupleID(1, 2), MakeTupleID(3, 4)),
		WriteSet:   NewItemSet(MakeTupleID(1, 2)),
		WriteBytes: 64,
	}).Marshal()
	f.Add(good)
	// Truncated header.
	f.Add(good[:certHeader-1])
	// Hostile counts: nr*8 alone overflows int32 arithmetic, and
	// nr+nw sums past any buffer. The decoder must reject these by
	// bounding each count against len(b) before any multiplication.
	f.Add(hostileLengthCert(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0))
	f.Add(hostileLengthCert(0x20000000, 0x20000000, 0, 16))
	f.Add(hostileLengthCert(2, 0xFFFFFFFE, 0, 16))
	f.Add(hostileLengthCert(0, 0, 0xFFFFFFFF, 8))
	// Counts that fit the header but overrun the body.
	f.Add(hostileLengthCert(3, 0, 0, 16))
	// Low-water lags: beyond LastCommitted (decodes to mark 0), and the
	// saturated maximum below a large snapshot.
	lagged := hostileLengthCert(0, 0, 0, 0)
	binary.BigEndian.PutUint32(lagged[8:12], 0xFFFFFFFF)
	f.Add(lagged)
	saturated := (&TxnCert{TID: MakeTID(4, 1), LastCommitted: 1 << 40, LowWater: 7}).Marshal()
	f.Add(saturated)

	f.Fuzz(func(t *testing.T, data []byte) {
		tc, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Accepted input: the sets must lie within the buffer and the
		// message must re-marshal to a decodable form.
		if len(tc.ReadSet)*8+len(tc.WriteSet)*8+tc.WriteBytes > len(data) {
			t.Fatalf("accepted sets larger than input: nr=%d nw=%d wb=%d len=%d",
				len(tc.ReadSet), len(tc.WriteSet), tc.WriteBytes, len(data))
		}
		if _, err := PeekTID(data); err != nil {
			t.Fatal("PeekTID failed on a message Unmarshal accepted")
		}
		// The header invariants: Site is the TID's site and the mark
		// never exceeds the snapshot.
		if tc.Site != TIDSite(tc.TID) || tc.LowWater > tc.LastCommitted {
			t.Fatalf("decoded Site %d (TID site %d), LowWater %d > LastCommitted %d",
				tc.Site, TIDSite(tc.TID), tc.LowWater, tc.LastCommitted)
		}
		rt, err := Unmarshal(tc.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if rt.TID != tc.TID || len(rt.ReadSet) != len(tc.ReadSet) || len(rt.WriteSet) != len(tc.WriteSet) ||
			rt.LowWater != tc.LowWater || rt.Site != tc.Site {
			t.Fatal("round trip mismatch")
		}
	})
}

// TestUnmarshalHostileLengths is the non-fuzz pin of the overflow corpus, so
// plain `go test` exercises it too.
func TestUnmarshalHostileLengths(t *testing.T) {
	cases := [][]byte{
		hostileLengthCert(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0),
		hostileLengthCert(0x20000000, 0x20000000, 0, 16),
		hostileLengthCert(2, 0xFFFFFFFE, 0, 16),
		hostileLengthCert(0, 0, 0xFFFFFFFF, 8),
		hostileLengthCert(3, 0, 0, 16),
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Fatalf("case %d: hostile lengths accepted", i)
		}
	}
	// Sanity: the zero-length-sets message is still fine.
	if _, err := Unmarshal(hostileLengthCert(0, 0, 0, 0)); err != nil {
		t.Fatalf("benign empty message rejected: %v", err)
	}
}
