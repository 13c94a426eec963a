// Package lib is the caller gate's fixture: each name is one case of the
// rule TestCallerGateRule pins.
package lib

// Used has a non-test caller.
func Used() {}

// Unused has no caller at all: it fails.
func Unused() {}

// TestOnly is called only from a test file: it fails.
func TestOnly() {}

// Closer is a capability that Res implements and the command asserts.
type Closer interface{ Close() }

// Orphan is a capability that nothing implements or asserts: it fails twice.
type Orphan interface{ Orphaned() }

// Named is satisfied by Res only through the method it embeds.
type Named interface{ Name() string }

// Res embeds inner, whose methods it promotes.
type Res struct{ inner }

// Close is called only through Closer.
func (*Res) Close() {}

type inner struct{}

// Describe is called only as a method promoted into Res.
func (inner) Describe() string { return "" }

// Name is called only through Named, which Res satisfies by promotion.
func (inner) Name() string { return "" }
