// Package dbsm implements the Database State Machine certification
// prototype (Section 3.3): the distributed transaction termination protocol
// that multicasts a committing transaction's read-set, write-set, and
// written values, and deterministically certifies it at every replica using
// the total delivery order.
//
// Like internal/gcs, this package is "real code" in the paper's sense: its
// execution cost is accounted to the simulated CPU, and it runs unchanged on
// the native runtime bridge.
package dbsm

import (
	"slices"
	"sort"
)

// TupleID identifies one tuple. The table identifier occupies the highest 16
// bits, so identifiers sort by table and the owning table of any tuple is a
// shift away (Section 3.3).
type TupleID uint64

const (
	tableShift = 48
	rowMask    = (uint64(1) << tableShift) - 1
)

// MakeTupleID builds an identifier for a row of a table. Rows are truncated
// to 48 bits.
func MakeTupleID(table uint16, row uint64) TupleID {
	return TupleID(uint64(table)<<tableShift | (row & rowMask))
}

// Table extracts the table identifier.
func (id TupleID) Table() uint16 { return uint16(uint64(id) >> tableShift) }

// Row extracts the row identifier.
func (id TupleID) Row() uint64 { return uint64(id) & rowMask }

// ItemSet is a sorted, duplicate-free set of tuple identifiers. Keeping both
// sets ordered lets certification conclude in a single traversal
// (Section 3.3).
type ItemSet []TupleID

// NewItemSet builds a set from arbitrary identifiers, sorting and
// deduplicating.
func NewItemSet(ids ...TupleID) ItemSet {
	s := make(ItemSet, len(ids))
	copy(s, ids)
	slices.Sort(s)
	// Deduplicate in place.
	out := s[:0]
	for i, id := range s {
		if i == 0 || id != s[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// Add inserts an identifier, keeping order; returns the updated set.
func (s ItemSet) Add(id TupleID) ItemSet {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// Contains reports set membership.
func (s ItemSet) Contains(id TupleID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Intersects reports whether the two sets share an identifier, in a single
// merged traversal of the two sorted sets.
func (s ItemSet) Intersects(o ItemSet) bool {
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] == o[j]:
			return true
		case s[i] < o[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Clone returns an independent copy.
func (s ItemSet) Clone() ItemSet {
	out := make(ItemSet, len(s))
	copy(out, s)
	return out
}
