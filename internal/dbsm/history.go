package dbsm

// history is the certifier's retained committed write-sets, oldest first,
// stored in a power-of-two ring: appending is amortised O(1) and dropping
// the oldest k entries costs O(k), whatever the window's depth. Indexes
// passed to at are logical (0 is the oldest retained entry).
type history struct {
	buf  []histEntry
	head int
	n    int
}

// len reports the retained entry count.
func (h *history) len() int { return h.n }

// at returns the i-th oldest retained entry.
func (h *history) at(i int) *histEntry { return &h.buf[(h.head+i)&(len(h.buf)-1)] }

// push appends e as the newest entry, doubling the ring when it is full.
func (h *history) push(e histEntry) {
	if h.n == len(h.buf) {
		buf := make([]histEntry, max(16, 2*len(h.buf)))
		for i := 0; i < h.n; i++ {
			buf[i] = *h.at(i)
		}
		h.buf, h.head = buf, 0
	}
	h.buf[(h.head+h.n)&(len(h.buf)-1)] = e
	h.n++
}

// dropOldest removes the k oldest entries, clearing their slots so the
// write-sets they held can be collected.
func (h *history) dropOldest(k int) {
	for i := 0; i < k; i++ {
		*h.at(i) = histEntry{}
	}
	if h.n -= k; h.n == 0 {
		h.head = 0
	} else {
		h.head = (h.head + k) & (len(h.buf) - 1)
	}
}

// truncate keeps the n oldest entries and clears the rest.
func (h *history) truncate(n int) {
	for i := n; i < h.n; i++ {
		*h.at(i) = histEntry{}
	}
	h.n = n
}
