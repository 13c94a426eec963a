package frame

import "sync"

// The simulation's hot path creates one short-lived Frame per transmission
// (the channel's in-flight copy). Those are recycled through a List — the
// free list of the run that sent them — and come back to it through Put,
// which every consumer already calls.

// List is a LIFO free list of frames with a single owner: the simulated run
// (one scheduler, hence one goroutine at a time) whose pipes Get from it. It
// is not locked. The zero List is empty and ready to use.
//
// Frames that have acquired NAK capacity rest apart from those that have
// not, and Get is told which kind the caller is about to fill. One stack
// would hand the checkpoint's frame, just Put, to the next I-frame, and over
// time every frame of the run — thousands, for a handful of checkpoints in
// flight — would grow a NAK array it never uses again, each growth an
// allocation in whichever run happened to draw it.
type List struct{ plain, listed []*Frame }

// Get returns a Frame in the state Put left it (see the package-level Get),
// with NAK capacity if the caller has NAKs to copy in and one is at hand,
// and not yet homed: the caller fills it, then calls Adopt.
func (l *List) Get(naks bool) *Frame {
	from, other := &l.plain, &l.listed
	if naks {
		from, other = other, from
	}
	if len(*from) == 0 {
		from = other
	}
	n := len(*from)
	if n == 0 {
		return new(Frame)
	}
	f := (*from)[n-1]
	(*from)[n-1] = nil
	*from = (*from)[:n-1]
	return f
}

// Adopt makes l the list f returns to when it is Put. It comes after the
// frame is filled because filling is a struct copy, which would carry the
// source frame's home along; and it is how a frame that crossed to another
// goroutine's run (a shard mailbox) changes to the list that goroutine owns,
// before anything there can Put it.
func (l *List) Adopt(f *Frame) { f.home = l }

// pool serves the frames no run owns: the live driver's reader goroutine
// decodes into frames from Get on one goroutine and the driver Puts them on
// another, which a single-owner List cannot take. It is the one sync.Pool
// left in the repository for that reason; no simulated path reaches it.
var pool = sync.Pool{New: func() any { return new(Frame) }}

// Get returns a home-less Frame from the package pool. All fields are zero
// except NAKs, which may be a non-nil empty slice whose capacity the caller
// may append into (Pipe.Send's checkpoint copy relies on this).
func Get() *Frame { return pool.Get().(*Frame) }

// Put resets f and returns it where it came from: the List that adopted it,
// or the package pool for a home-less frame. The reset drops the Payload
// reference rather than retaining its capacity: recycled payloads alias
// caller-owned slices (see Pipe.Send), and reusing that memory for a later
// frame would scribble over live data. NAKs capacity IS retained: every NAK
// list entering a free list is a copy Pipe.Send made into it, so recycling it
// is safe and keeps checkpoint traffic allocation-free. The caller must not
// touch f after Put, must not Put a frame any other component still
// references, and must be the goroutine that owns f's home.
func Put(f *Frame) {
	home := f.home
	*f = Frame{NAKs: f.NAKs[:0]}
	if home == nil {
		pool.Put(f)
		return
	}
	if cap(f.NAKs) > 0 {
		home.listed = append(home.listed, f)
	} else {
		home.plain = append(home.plain, f)
	}
}
