package spec

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTable(t *testing.T) {
	tab := NewTable[int]("widget")
	tab.Add("zeta", []string{"Z", "last"}, 26)
	tab.Add("alpha", nil, 1)
	if got := tab.Names(); !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Fatalf("Names() = %v, want the canonical names sorted", got)
	}
	for name, want := range map[string]int{"zeta": 26, "ZETA": 26, " z ": 26, "Last": 26, "alpha": 1} {
		if got, err := tab.Lookup(name); err != nil || got != want {
			t.Errorf("Lookup(%q) = %d, %v; want %d", name, got, err, want)
		}
	}
	_, err := tab.Lookup(" beta ")
	if want := `unknown widget "beta" (registered: alpha, zeta)`; err == nil || err.Error() != want {
		t.Fatalf("unknown-name error = %v, want %s", err, want)
	}
	// The caller owns what Names returns.
	tab.Names()[0] = "clobbered"
	if tab.Names()[0] != "alpha" {
		t.Fatal("Names() handed out the table's own slice")
	}
	for _, dup := range []string{"alpha", "ALPHA", "z", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%q) a second time did not panic", dup)
				}
			}()
			tab.Add(dup, nil, 0)
		}()
	}
}

func TestLookupDoesNotAllocate(t *testing.T) {
	tab := NewTable[int]("widget")
	tab.Add("alpha", nil, 1)
	if n := testing.AllocsPerRun(100, func() { tab.Lookup("alpha") }); n != 0 {
		t.Fatalf("Lookup of a canonical name costs %v allocations, want 0", n)
	}
}

// TestParamsGetters reads one list through every getter: present keys
// parse, absent keys take the default, and Done is clean once each key has
// been read.
func TestParamsGetters(t *testing.T) {
	p := Parse("k", " f = 2.5 , pr=0.25,d=40ms,n=7,u=4294967295,b=true,t= hello ,c=ba,, ")
	if got := p.Float("f", 0); got != 2.5 {
		t.Errorf("Float = %v", got)
	}
	if got := p.Prob("pr", 0); got != 0.25 {
		t.Errorf("Prob = %v", got)
	}
	if got := p.Duration("d", 0); got != 40*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if got := p.Int("n", 0); got != 7 {
		t.Errorf("Int = %v", got)
	}
	if got := p.Uint32("u", 0); got != 1<<32-1 {
		t.Errorf("Uint32 = %v", got)
	}
	if got := p.Bool("b", false); !got {
		t.Errorf("Bool = %v", got)
	}
	if got := p.Text("t", ""); got != "hello" {
		t.Errorf("Text = %q", got)
	}
	if got := p.Choice("c", 0, "both", "ab", "ba"); got != 2 {
		t.Errorf("Choice = %v", got)
	}
	if p.Float("x", 1.5) != 1.5 || p.Prob("x", 0.5) != 0.5 || p.Duration("x", time.Second) != time.Second ||
		p.Int("x", 3) != 3 || p.Uint32("x", 9) != 9 || !p.Bool("x", true) || p.Text("x", "d") != "d" ||
		p.Choice("x", 1, "a", "b") != 1 {
		t.Error("an absent key did not take its default")
	}
	if err := p.Done(); err != nil {
		t.Fatalf("Done() = %v after every key was read", err)
	}
}

// TestParamsRejects: one row per way a list can be wrong. read is what the
// builder asks for; the error must name the problem and carry the kind.
func TestParamsRejects(t *testing.T) {
	cases := []struct {
		text    string
		read    func(p *Params)
		errLike string
	}{
		{"p", func(p *Params) { p.Float("p", 0) }, `parameter "p" lacks '='`},
		{"p=1,p=2", func(p *Params) { p.Float("p", 0) }, `duplicate parameter "p"`},
		{"p=1,q=2", func(p *Params) { p.Float("p", 0) }, `unknown parameter "q"`},
		{"", func(p *Params) { p.RequiredProb("p") }, `missing required parameter "p"`},
		{"", func(p *Params) { p.RequiredDuration("d") }, `missing required parameter "d"`},
		{"", func(p *Params) { p.RequiredText("file") }, `missing required parameter "file"`},
		{"f=banana", func(p *Params) { p.Float("f", 0) }, `bad f "banana"`},
		{"f=NaN", func(p *Params) { p.Float("f", 0) }, `bad f "NaN"`},
		{"f=+Inf", func(p *Params) { p.Float("f", 0) }, `bad f "+Inf"`},
		{"f=-inf", func(p *Params) { p.Float("f", 0) }, `bad f "-inf"`},
		{"f=1e999", func(p *Params) { p.Float("f", 0) }, `bad f "1e999"`},
		{"p=NaN", func(p *Params) { p.Prob("p", 0) }, `bad p "NaN"`},
		{"p=1.5", func(p *Params) { p.Prob("p", 0) }, "p=1.5 out of [0,1]"},
		{"p=-0.1", func(p *Params) { p.RequiredProb("p") }, "p=-0.1 out of [0,1]"},
		{"d=soon", func(p *Params) { p.Duration("d", 0) }, `bad d "soon"`},
		{"d=5", func(p *Params) { p.Duration("d", 0) }, `bad d "5"`},
		{"n=-1", func(p *Params) { p.Int("n", 0) }, `bad n "-1"`},
		{"n=1.5", func(p *Params) { p.Int("n", 0) }, `bad n "1.5"`},
		{"u=4294967296", func(p *Params) { p.Uint32("u", 0) }, `bad u "4294967296"`},
		{"b=maybe", func(p *Params) { p.Bool("b", false) }, `bad b "maybe"`},
		{"c=", func(p *Params) { p.Choice("c", 0, "ab", "ba") }, `bad c "" (want ab | ba)`},
		{"c=AB", func(p *Params) { p.Choice("c", 0, "ab", "ba") }, `bad c "AB" (want ab | ba)`},
		{"p=0.5", func(p *Params) { p.Prob("p", 0); p.Failf("p and %s disagree", "q") }, "p and q disagree"},
		// The first error wins, whatever comes after it.
		{"f=x,g=y", func(p *Params) { p.Float("f", 0); p.Float("g", 0) }, `bad f "x"`},
	}
	for _, tc := range cases {
		p := Parse("kind", tc.text)
		tc.read(p)
		err := p.Done()
		if err == nil || !strings.Contains(err.Error(), tc.errLike) || !strings.HasPrefix(err.Error(), "kind: ") {
			t.Errorf("Parse(%q): Done() = %v, want \"kind: …%s…\"", tc.text, err, tc.errLike)
		}
	}
}

// TestErrIsNotDone: Err reports what went wrong so far and leaves the
// unread-key check to Done, so a builder may consult it half way.
func TestErrIsNotDone(t *testing.T) {
	p := Parse("k", "a=1,b=2")
	p.Int("a", 0)
	if err := p.Err(); err != nil {
		t.Fatalf("Err() = %v with b merely unread", err)
	}
	if err := p.Done(); err == nil {
		t.Fatal("Done() accepted the unread key b")
	}
}

// TestKindIsNotAFormat: the kind may carry user text (faults quotes the
// event), so it must never be interpreted as a format string.
func TestKindIsNotAFormat(t *testing.T) {
	p := Parse(`event "x@1s:%d=%s"`, "k")
	if err := p.Done(); err == nil || !strings.HasPrefix(err.Error(), `event "x@1s:%d=%s": `) {
		t.Fatalf("Done() = %v", err)
	}
}
