package frame

import (
	"testing"
	"unsafe"
)

// TestListLIFOAndHome pins the frame's way home: a frame a List adopted goes
// back to that List and never to the package pool, Put leaves it reset and
// home-less on the list, and the NAK capacity rides along.
func TestListLIFOAndHome(t *testing.T) {
	var l List
	a, b := l.Get(false), l.Get(false)
	if a == b || a.home != nil || b.home != nil {
		t.Fatal("an empty list must hand out distinct home-less frames")
	}
	l.Adopt(a)
	l.Adopt(b)
	a.Kind, a.Payload, a.Corrupted = KindI, []byte("x"), true
	Put(a)
	Put(b)
	if len(l.plain) != 2 || len(l.listed) != 0 {
		t.Fatalf("list holds %d+%d frames after two Puts, want 2+0", len(l.plain), len(l.listed))
	}
	if got := l.Get(false); got != b {
		t.Fatal("Get did not return the most recent Put")
	}
	got := l.Get(false)
	if got != a {
		t.Fatal("second Get did not return the earlier Put")
	}
	if got.home != nil || got.Kind != KindInvalid || got.Payload != nil || got.Corrupted || got.NAKs != nil {
		t.Fatalf("recycled frame not reset: %+v", got)
	}
}

// TestListKeepsNAKCapacityApart pins the two stacks: the frame that carried a
// checkpoint's NAK list comes back for the next NAK-carrying frame, capacity
// intact, and not for the I-frames sent in between; either kind falls back to
// the other stack before allocating.
func TestListKeepsNAKCapacityApart(t *testing.T) {
	var l List
	cp, i1 := l.Get(true), l.Get(false)
	l.Adopt(cp)
	l.Adopt(i1)
	cp.NAKs = append(cp.NAKs, 1, 2, 3)
	Put(i1)
	Put(cp) // most recent Put, yet not the next plain Get
	if got := l.Get(false); got != i1 {
		t.Fatal("an I-frame was handed the frame with NAK capacity while a plain one rested")
	}
	got := l.Get(true)
	if got != cp || len(got.NAKs) != 0 || cap(got.NAKs) < 3 {
		t.Fatalf("a NAK-carrying frame did not get the capacity back: %+v", got)
	}
	l.Adopt(cp)
	Put(cp)
	if got := l.Get(false); got != cp {
		t.Fatal("a plain Get allocated while a frame rested on the other stack")
	}
	l.Adopt(i1)
	Put(i1)
	if got := l.Get(true); got != i1 {
		t.Fatal("a NAK Get allocated while a frame rested on the other stack")
	}
}

// TestHomelessFrameUsesThePool pins the other half: a frame nobody adopted —
// the live reader's — never lands on a List.
func TestHomelessFrameUsesThePool(t *testing.T) {
	var l List
	f := Get()
	if f.home != nil {
		t.Fatal("the package pool handed out a homed frame")
	}
	Put(f)
	if len(l.plain)+len(l.listed) != 0 {
		t.Fatal("a home-less frame reached a list")
	}
	c := (&Frame{home: &l, Payload: []byte("p")}).Clone()
	if c.home != nil {
		t.Fatal("Clone carried the original's home to the caller's own copy")
	}
}

func TestListSteadyStateNoAllocs(t *testing.T) {
	var l List
	cycle := func() {
		f := l.Get(true)
		l.Adopt(f)
		f.NAKs = append(f.NAKs, 7)
		Put(f)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("Get/Adopt/Put cycle allocates %.1f/op, want 0", avg)
	}
}

// TestFrameSizeClass pins the layout: one Frame is live per frame in flight,
// and the home pointer must not push it out of the 96-byte size class.
func TestFrameSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size > 96 {
		t.Fatalf("Frame is %d bytes, want at most 96", size)
	}
}
