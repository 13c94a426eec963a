package channel

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseModelValidSpecs(t *testing.T) {
	cases := []struct {
		spec string
		want string // expected concrete type, via %T on the instance
	}{
		{"perfect", "channel.Perfect"},
		{" Perfect ", "channel.Perfect"},
		{"fixed:p=0.05", "channel.FixedProb"},
		{"fixed:p=0", "channel.FixedProb"},
		{"fixed:p=1", "channel.FixedProb"},
		{"bsc:ber=1e-5", "*channel.BSC"},
		{"bsc:ber=1e-5,fec=hamming74", "*channel.BSC"},
		{"bsc:ber=1e-5,fec=rep3", "*channel.BSC"},
		{"ge:gber=1e-7,bber=2e-3,mgood=40ms,mbad=4ms", "*channel.GilbertElliott"},
		{"gilbert-elliott:gber=1e-7,bber=2e-3,mgood=40ms,mbad=4ms,fec=hamming74", "*channel.GilbertElliott"},
		{"burst:period=100ms,len=5ms", "*channel.BurstTrain"},
		{"burst:period=100ms,len=5ms,offset=1ms,ber=1e-6,fec=none", "*channel.BurstTrain"},
	}
	for _, tc := range cases {
		m, err := ParseModel(tc.spec)
		if err != nil {
			t.Errorf("ParseModel(%q): %v", tc.spec, err)
			continue
		}
		if got := fmt.Sprintf("%T", m.New()); got != tc.want {
			t.Errorf("ParseModel(%q).New() = %s, want %s", tc.spec, got, tc.want)
		}
	}
}

// TestParseModelRejectsMalformedSpecs is the fuzz-style rejection table: a
// spec the parser merely shrugs at is a run measuring the wrong channel, so
// every malformed shape here must be a hard error mentioning the problem.
func TestParseModelRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		spec    string
		errLike string // substring the error must carry
	}{
		{"", "empty model spec"},
		{"   ", "empty model spec"},
		{"nosuch", "unknown model kind"},
		{"nosuch:p=1", "unknown model kind"},
		{"fixed", "missing required parameter"},
		{"fixed:p", "lacks '='"},
		{"fixed:p=0.5,p=0.6", "duplicate parameter"},
		{"fixed:p=banana", `bad p "banana"`},
		{"fixed:p=1.5", "out of [0,1]"},
		{"fixed:p=-0.1", "out of [0,1]"},
		{"fixed:p=0.5,q=1", `unknown parameter "q"`},
		{"bsc", "missing required parameter"},
		{"bsc:ber=2", "out of [0,1]"},
		{"bsc:ber=1e-5,fec=turbo", "unknown scheme"},
		{"ge:gber=1e-7", "missing required parameter"},
		{"ge:gber=1e-7,bber=2e-3,mgood=40ms,mbad=oops", `bad mbad "oops"`},
		{"ge:gber=1e-7,bber=2e-3,mgood=0s,mbad=4ms", "must be positive"},
		{"burst:period=100ms", "missing required parameter"},
		{"burst:period=0s,len=0s", "period must be positive"},
		{"burst:period=10ms,len=20ms", "out of [0, period]"},
		{"trace", "missing required parameter"},
		{"trace:file=/nonexistent/no.trc", "no such file"},
		{"trace:file=x,policy=sometimes", "bad policy"},
		// Numbers that are not numbers (ISSUE 24): each of these parsed, and
		// ran a channel nobody asked for.
		{"fixed:p=NaN", `bad p "NaN"`},
		{"fixed:p=+Inf", `bad p "+Inf"`},
		{"bsc:ber=NaN", `bad ber "NaN"`},
		{"ge:gber=2,bber=-1,mgood=1ms,mbad=1ms", "gber=2 out of [0,1]"},
		{"ge:gber=0,bber=-1,mgood=1ms,mbad=1ms", "bber=-1 out of [0,1]"},
		{"ge:gber=NaN,bber=0.5,mgood=1ms,mbad=1ms", `bad gber "NaN"`},
		{"burst:period=10ms,len=1ms,ber=5", "ber=5 out of [0,1]"},
		{"burst:period=10ms,len=1ms,ber=NaN", `bad ber "NaN"`},
	}
	for _, tc := range cases {
		_, err := ParseModel(tc.spec)
		if err == nil {
			t.Errorf("ParseModel(%q): want error containing %q, got nil", tc.spec, tc.errLike)
			continue
		}
		if !strings.Contains(err.Error(), tc.errLike) {
			t.Errorf("ParseModel(%q) = %q, want substring %q", tc.spec, err, tc.errLike)
		}
	}
}

func TestParseModelUnknownKindListsRegistry(t *testing.T) {
	_, err := ParseModel("bogus:p=1")
	if err == nil {
		t.Fatal("want error")
	}
	for _, kind := range ModelKinds() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("unknown-kind error %q does not list registered kind %q", err, kind)
		}
	}
}

// TestModelNewReturnsFreshInstances pins the contract stateful models
// depend on: two pipes resolving the same spec must never share sojourn
// state or replay cursors.
func TestModelNewReturnsFreshInstances(t *testing.T) {
	m := MustParseModel("ge:gber=1e-9,bber=0.5,mgood=1ms,mbad=1ms")
	a, b := m.New(), m.New()
	if a == b {
		t.Fatal("Model.New returned the same instance twice")
	}
	// Drive a's sojourn process far ahead, then check b still produces the
	// same decision stream as a brand-new instance under identical RNGs:
	// any state shared through the factory would desynchronize them.
	rngA := sim.NewRNG(7)
	for i := 0; i < 500; i++ {
		start := sim.Time(i) * sim.Time(sim.Millisecond)
		a.Corrupt(rngA, start, start+sim.Time(100*sim.Microsecond), 8000)
	}
	fresh := m.New()
	rngB, rngF := sim.NewRNG(7), sim.NewRNG(7)
	for i := 0; i < 200; i++ {
		start := sim.Time(i) * sim.Time(sim.Millisecond)
		end := start + sim.Time(100*sim.Microsecond)
		if b.Corrupt(rngB, start, end, 8000) != fresh.Corrupt(rngF, start, end, 8000) {
			t.Fatalf("instance b diverged from a fresh instance at frame %d: shared state", i)
		}
	}
}

func TestLegacySpecs(t *testing.T) {
	cases := []struct {
		ber, pf, pc  float64
		wantI, wantC string
	}{
		{0, -1, -1, "", ""},
		{1e-5, -1, -1, "bsc:ber=1e-05,fec=hamming74", "bsc:ber=1e-05,fec=rep3"},
		{1e-5, 0.05, 0.01, "fixed:p=0.05", "fixed:p=0.01"}, // pf overrides ber
		{0, 0.2, -1, "fixed:p=0.2", "fixed:p=0"},           // pc unset -> clean control
		{0, 0, -1, "fixed:p=0", "fixed:p=0"},
	}
	// A knob that is not a probability names a spec the parser rejects; it
	// used to compare false with everything and read as the perfect channel.
	nan := math.NaN()
	for _, k := range [][3]float64{{nan, -1, -1}, {-1e-5, -1, -1}, {0, nan, -1}, {0, 0.1, nan}} {
		i, c := LegacySpecs(k[0], k[1], k[2])
		_, errI := ParseModel(i)
		_, errC := ParseModel(c)
		if errI == nil && errC == nil {
			t.Errorf("LegacySpecs(%g, %g, %g) = (%q, %q), both accepted", k[0], k[1], k[2], i, c)
		}
	}
	for _, tc := range cases {
		i, c := LegacySpecs(tc.ber, tc.pf, tc.pc)
		if i != tc.wantI || c != tc.wantC {
			t.Errorf("LegacySpecs(%g, %g, %g) = (%q, %q), want (%q, %q)",
				tc.ber, tc.pf, tc.pc, i, c, tc.wantI, tc.wantC)
		}
		// Non-empty legacy specs must round-trip through the parser.
		for _, spec := range []string{i, c} {
			if spec == "" {
				continue
			}
			if _, err := ParseModel(spec); err != nil {
				t.Errorf("LegacySpecs produced unparseable %q: %v", spec, err)
			}
		}
	}
}

func TestTraceSpecSelectsStream(t *testing.T) {
	dir := t.TempDir()
	set := NewTraceSet()
	for _, name := range []string{"ab/i", "ab/c"} {
		tr := set.Stream(name)
		tr.Recs = append(tr.Recs, TraceRec{Start: 0, End: 10, Bits: 80, Corrupt: name == "ab/i"})
	}
	path := filepath.Join(dir, "two.trc")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	// Ambiguous: two streams, none selected.
	_, err := ParseModel("trace:file=" + path)
	if err == nil || !strings.Contains(err.Error(), "pick one with stream=") {
		t.Fatalf("ambiguous trace spec: got %v", err)
	}
	// Unknown stream name lists what the file holds.
	_, err = ParseModel("trace:file=" + path + ",stream=ba/i")
	if err == nil || !strings.Contains(err.Error(), "ab/i") {
		t.Fatalf("unknown stream error should list streams: got %v", err)
	}
	// Explicit stream works and replays the recorded fate.
	m, err := ParseModel("trace:file=" + path + ",stream=ab/i")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.New().Corrupt(nil, 0, 10, 80); !got {
		t.Fatal("replayed decision lost")
	}

	// Single-stream files need no stream= key.
	solo := NewTraceSet()
	solo.Stream("ab/i").Recs = []TraceRec{{Start: 0, End: 5, Bits: 40, Corrupt: true}}
	soloPath := filepath.Join(dir, "one.trc")
	if err := solo.WriteFile(soloPath); err != nil {
		t.Fatal(err)
	}
	m, err = ParseModel("trace:file=" + soloPath)
	if err != nil {
		t.Fatal(err)
	}
	if !m.New().Corrupt(nil, 0, 5, 40) {
		t.Fatal("single-stream default replay lost the decision")
	}
}

// TestParseBudget pins what parsing a spec costs: bench.Run parses two per
// run, and the link_bulk benchmark's whole repetition makes ≈ 190
// allocations, so a parser that grew by a dozen would breach its bound.
// FixedProb is boxed once per parsed spec, not once per instance.
func TestParseBudget(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ModelFactory("fixed:p=0.05") }); n > 9 {
		t.Errorf(`ModelFactory("fixed:p=0.05") costs %v allocations, budget 9`, n)
	}
	factory, err := ModelFactory("fixed:p=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { factory() }); n != 0 {
		t.Errorf("a fixed: instance costs %v allocations, want 0", n)
	}
}

func TestSpecGrammarMentionsEveryKind(t *testing.T) {
	g := SpecGrammar()
	for _, kind := range ModelKinds() {
		if !strings.Contains(g, kind) {
			t.Errorf("SpecGrammar() %q missing kind %q", g, kind)
		}
	}
}
