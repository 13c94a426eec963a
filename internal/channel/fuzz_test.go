package channel

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The three parsers of this package that read what a user or a file hands
// them (ROADMAP item 3). `make specsmoke` runs each for ten seconds; the seeds
// are the accept and reject tables of the tests next door.

// FuzzParseModel: no spec panics the parser, and an accepted one is
// re-accepted from its own Spec() and instantiates. The trace kind is left
// out: it opens files.
func FuzzParseModel(f *testing.F) {
	for _, seed := range []string{
		"perfect", " Perfect ", "fixed:p=0.05", "bsc:ber=1e-5,fec=hamming74",
		"ge:gber=1e-7,bber=2e-3,mgood=40ms,mbad=4ms", "gilbert-elliott:gber=0,bber=1,mgood=1ns,mbad=1h,fec=rep3",
		"burst:period=100ms,len=5ms,offset=1ms,ber=1e-6,fec=none",
		"", "nosuch:p=1", "fixed", "fixed:p", "fixed:p=0.5,p=0.6", "fixed:p=NaN", "fixed:p=1.5,q=1",
		"bsc:ber=1e-5,fec=turbo", "ge:gber=2,bber=-1,mgood=0s,mbad=oops", "burst:period=10ms,len=20ms,ber=5",
		"fixed:,,p = 1 ,", "burst:period=-9223372036854775808ns,len=0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if strings.Contains(strings.ToLower(text), "trace") {
			t.Skip()
		}
		m, err := ParseModel(text)
		if err != nil {
			return
		}
		again, err := ParseModel(m.String())
		if err != nil || again.String() != m.String() {
			t.Fatalf("ParseModel(%q) accepted, but its Spec() %q re-parses as %q, %v", text, m.String(), again.String(), err)
		}
		if m.New() == nil {
			t.Fatalf("ParseModel(%q).New() returned nil", text)
		}
	})
}

// FuzzReadTraceSet: no input panics the reader or makes it allocate beyond a
// multiple of the input's length, and an accepted set survives Encode and a
// second read unchanged.
func FuzzReadTraceSet(f *testing.F) {
	set := NewTraceSet()
	set.Stream("ab/i").Recs = []TraceRec{{Start: 0, End: 10, Bits: 80, Corrupt: true}, {Start: 10, End: 25, Bits: 120}}
	set.Stream("spans").Mode = SpanTrace
	set.Get("spans").Recs = []TraceRec{{Start: 0, End: 100}, {Start: 100, End: 140, Corrupt: true}}
	var valid bytes.Buffer
	if err := set.Encode(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, seed := range []string{
		"", "NOTATRACE", "LAMSTRC1", "LAMSTRC9\x00", "LAMSTRC1\x00",
		"LAMSTRC1\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f",
		"LAMSTRC1\x01\x00\x00\xff\xff\xff\xff\xff\xff\x7f",
		"LAMSTRC1\x02\x01x\x00\x01\x01\x01\x01\x01\x01x\x01\x00",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		set, err := ReadTraceSet(bytes.NewReader(in))
		if err != nil {
			return
		}
		// A record is at least four bytes of input, a stream at least three.
		recs := 0
		for _, name := range set.Names() {
			recs += len(set.Get(name).Recs)
		}
		if len(set.Names()) > len(in)/3 || recs > len(in)/4 {
			t.Fatalf("%d streams and %d records out of %d bytes", len(set.Names()), recs, len(in))
		}
		var out bytes.Buffer
		if err := set.Encode(&out); err != nil {
			t.Fatalf("accepted set does not encode: %v", err)
		}
		back, err := ReadTraceSet(&out)
		if err != nil || !reflect.DeepEqual(back, set) {
			t.Fatalf("accepted set changed over Encode and ReadTraceSet (%v)", err)
		}
	})
}

// FuzzImportTwoColumn: no input panics the importer, and an accepted trace
// is a list of spans that are non-negative, non-empty, sorted and contiguous.
func FuzzImportTwoColumn(f *testing.F) {
	for _, seed := range []string{
		"# measured link trace\n0.0 0\n1.5 1\n\n2.0 0\n3.0 0\n",
		"", "1.0 0", "0.0 2\n1.0 0", "x 0\n1.0 0", "1.0 0\n0.5 1", "1.0 0\n1.0 1", "0.0 0 extra\n1 0",
		"-1.0 0\n1.0 0", "NaN 0\n1 1\n2 0\n", "0 0\n+Inf 1", "0 0\n1e10 1", "0 1\n1e-10 0\n9223372036.854775 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ImportTwoColumn(strings.NewReader(in), "fuzz")
		if err != nil {
			return
		}
		if tr.Mode != SpanTrace || len(tr.Recs) == 0 {
			t.Fatalf("accepted %q as mode %d with %d spans", in, tr.Mode, len(tr.Recs))
		}
		for i, rec := range tr.Recs {
			if rec.Start < 0 || rec.End <= rec.Start || (i > 0 && rec.Start != tr.Recs[i-1].End) {
				t.Fatalf("accepted %q, span %d is %+v after %+v", in, i, rec, tr.Recs[max(i-1, 0)])
			}
		}
	})
}
