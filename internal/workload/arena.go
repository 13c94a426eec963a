package workload

import "fmt"

// zeroPage is the one payload of every generated datagram. A datagram's
// payload is immutable once offered (DESIGN.md §11: Pipe.Send aliases it, the
// sending buffer keeps it for retransmission, nothing in the stack reads its
// bytes), so N datagrams need N views of one read-only page, not N distinct
// kilobytes: the paper's canonical point used to materialise and zero 100 MB
// per run that nobody ever read. 64 KiB is the codec's largest payload; the
// array lives in the binary's zero-fill segment and is never written, so it
// costs no resident memory until read and then one page per 4 KiB read.
var zeroPage [1 << 16]byte

// Arena hands out datagram payloads: read-only, all-zero views of the shared
// zero page, or of the arena's own page for a request larger than that. The
// zero Arena is ready to use. Every generator has one of its own; UseArena
// only chooses whose page an oversize payload comes from and who checks it.
//
// The contract is the payload rule itself: nobody writes to a payload. Reset
// enforces it — it panics if any byte handed out since the last Reset is no
// longer zero — so a harness that Resets between runs (bench.Run does) turns a
// consumer scribbling on a shared payload into a failure of the run that did
// it. An Arena is not safe for concurrent use; the zero page, being read-only,
// is.
type Arena struct {
	big  []byte // the arena's own page, for requests beyond zeroPage
	high int    // longest view handed out since the last Reset
}

// page returns the page a request of n bytes is a view of.
func (a *Arena) page(n int) []byte {
	if n <= len(zeroPage) {
		return zeroPage[:]
	}
	return a.big
}

// Alloc returns an all-zero slice of n bytes with capacity exactly n (an
// append by the caller reallocates instead of reaching into the page).
func (a *Arena) Alloc(n int) []byte {
	if n < 0 {
		panic("workload: negative payload size")
	}
	if n > len(zeroPage) && n > len(a.big) {
		a.big = make([]byte, n)
	}
	a.high = max(a.high, n)
	return a.page(n)[:n:n]
}

// Reset ends a run: it verifies that every byte handed out since the last
// Reset is still zero and panics, naming the rule, if one is not.
func (a *Arena) Reset() {
	mustBeZero(a.page(a.high)[:a.high])
	a.high = 0
}

// VerifyZeroPage panics if any byte of the shared zero page has been written.
// It is Reset's check over the whole page, for tests that drive payload
// consumers without an arena of their own to Reset.
func VerifyZeroPage() { mustBeZero(zeroPage[:]) }

func mustBeZero(page []byte) {
	for i, b := range page {
		if b != 0 {
			panic(fmt.Sprintf("workload: payload byte %d was written (%#x): a datagram's payload is immutable "+
				"once offered, and every generated payload is a view of one shared zero page (DESIGN.md §11)", i, b))
		}
	}
}
