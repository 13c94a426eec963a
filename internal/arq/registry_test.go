package arq_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/arq"
	"repro/internal/arq/arqtest"
	"repro/internal/channel"
	"repro/internal/metrics"
	"repro/internal/sim"

	_ "repro/internal/engines" // link every registered engine in
)

func TestRegistryHoldsEveryEngine(t *testing.T) {
	got := strings.Join(arq.Protocols(), ",")
	for _, name := range []string{"gbn", "lams", "srhdlc"} {
		if !strings.Contains(got, name) {
			t.Fatalf("Protocols() = %s, missing %q", got, name)
		}
	}
}

func TestParseProtocolAliasesAndCase(t *testing.T) {
	for spelling, want := range map[string]string{
		"lams": "lams", "LAMS": "lams",
		"sr": "srhdlc", "sr-hdlc": "srhdlc", "hdlc": "srhdlc",
		"gbn": "gbn", "GBN-HDLC": "gbn", " srhdlc ": "srhdlc",
	} {
		reg, err := arq.ParseProtocol(spelling)
		if err != nil {
			t.Fatalf("ParseProtocol(%q): %v", spelling, err)
		}
		if reg.Name != want {
			t.Fatalf("ParseProtocol(%q).Name = %q, want %q", spelling, reg.Name, want)
		}
	}
}

func TestParseProtocolUnknownListsRegistered(t *testing.T) {
	_, err := arq.ParseProtocol("?")
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
	// `make clismoke` reads the engine list off this exact text.
	if want := `arq: unknown protocol "?" (registered: ` + strings.Join(arq.Protocols(), ", ") + ")"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	for _, name := range arq.Protocols() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered engine %q", err, name)
		}
	}
}

// TestParseProtocolBudget: resolving a canonical name allocates nothing —
// bench.Run does it once per run, inside the link_bulk allocation bound.
func TestParseProtocolBudget(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { arq.ParseProtocol("lams") }); n != 0 {
		t.Errorf(`ParseProtocol("lams") costs %v allocations, want 0`, n)
	}
}

// TestDefaultsValid: every registered engine's default configuration
// validates, and every registration has a display name for tables.
func TestDefaultsValid(t *testing.T) {
	for _, name := range arq.Protocols() {
		reg, err := arq.ParseProtocol(name)
		if err != nil {
			t.Fatalf("ParseProtocol(%q): %v", name, err)
		}
		if err := reg.Defaults(13 * sim.Millisecond).Validate(); err != nil {
			t.Fatalf("default %q configuration invalid: %v", name, err)
		}
		if reg.Display == "" {
			t.Fatalf("%q has no display name", name)
		}
	}
}

// configureTable is the written record of what each engine does with each
// harness knob: the configuration fields a knob lands in; a knob not listed
// has no counterpart in that engine and is ignored. An engine registered
// without a row here fails TestConfigureTable.
var configureTable = map[string]map[string][]string{
	"lams": {
		"RoundTrip": {"Timing.RoundTrip"},
		"Icp":       {"CheckpointInterval"},
		"Cdepth":    {"CumulationDepth"},
		"Tproc":     {"Timing.ProcTime"},
		"RecvCap":   {"RecvBufferCap"},
		"SendCap":   {"SendBufferCap"},
		"Metrics":   {"Metrics"},
	},
	"srhdlc": hdlcKnobs,
	"gbn":    hdlcKnobs,
	// SS-ARQ runs on Defaults(RoundTrip): SendCap and Metrics have
	// counterparts the mapping deliberately leaves alone (DESIGN.md §16).
	"ssarq": {
		"RoundTrip": {"Timing.RoundTrip"},
	},
}

var hdlcKnobs = map[string][]string{
	"RoundTrip": {"Timeout", "Timing.RoundTrip"},
	"W":         {"WindowSize"},
	"Alpha":     {"Timeout"},
	"Stutter":   {"Stutter"},
	"N2":        {"MaxTimeouts"},
	"Metrics":   {"Metrics"},
}

// TestConfigureTable turns one knob at a time and diffs the engine
// configuration Configure returns against the baseline's, field by field.
func TestConfigureTable(t *testing.T) {
	base := arq.Knobs{
		RoundTrip: 20 * sim.Millisecond, Icp: 10 * sim.Millisecond, Cdepth: 3, W: 64,
		Alpha: 5 * sim.Millisecond, Tproc: 10 * sim.Microsecond,
	}
	turned := arq.Knobs{
		RoundTrip: 30 * sim.Millisecond, Icp: 7 * sim.Millisecond, Cdepth: 5, W: 32,
		Alpha: 9 * sim.Millisecond, Stutter: true, N2: 4, Tproc: 25 * sim.Microsecond,
		RecvCap: 48, SendCap: 96, Metrics: metrics.New(),
	}
	kt := reflect.TypeOf(base)
	for _, name := range arq.Protocols() {
		want, ok := configureTable[name]
		if !ok {
			t.Errorf("engine %q has no row in configureTable", name)
			continue
		}
		reg, _ := arq.ParseProtocol(name)
		baseline := reg.Configure(base)
		for i := 0; i < kt.NumField(); i++ {
			k := base
			reflect.ValueOf(&k).Elem().Field(i).Set(reflect.ValueOf(turned).Field(i))
			got := diffFields("", reflect.ValueOf(baseline), reflect.ValueOf(reg.Configure(k)))
			if knob := kt.Field(i).Name; !reflect.DeepEqual(got, want[knob]) {
				t.Errorf("%s: knob %s lands in %v, table says %v", name, knob, got, want[knob])
			}
		}
		// The mapping starts from Defaults: nothing but the round trip
		// reaches an engine that maps no other knob.
		if len(want) == 1 && !reflect.DeepEqual(reg.Configure(turned), reg.Defaults(turned.RoundTrip)) {
			t.Errorf("%s: Configure(knobs) != Defaults(roundTrip)", name)
		}
	}
}

// diffFields lists the leaf fields (dotted through nested structs) in which
// two values of one struct type differ, sorted.
func diffFields(prefix string, a, b reflect.Value) []string {
	var out []string
	for i := 0; i < a.NumField(); i++ {
		name := prefix + a.Type().Field(i).Name
		fa, fb := a.Field(i), b.Field(i)
		if fa.Kind() == reflect.Struct {
			out = append(out, diffFields(name+".", fa, fb)...)
		} else if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// TestPairOwnershipContract drives every registered engine through the
// arq.Pair datagram-ownership contract: whatever was accepted is, after
// Stop, either delivered or handed back by Reclaim; a stopped pair refuses
// work and reports Failed; and an unsplit pair hands out one Metrics block
// for its whole life (bench.Run reads the pointer it took before the run).
func TestPairOwnershipContract(t *testing.T) {
	const n = 300
	pipe := channel.PipeConfig{
		RateBps:    100e6,
		Delay:      channel.ConstantDelay(4 * sim.Millisecond),
		IModelSpec: "fixed:p=0.2",
		CModelSpec: "fixed:p=0.05",
	}
	for _, name := range arq.Protocols() {
		reg, _ := arq.ParseProtocol(name)
		newScenario := func(t *testing.T) *arqtest.Scenario[arq.SenderHalf, arq.ReceiverHalf] {
			return arqtest.New[arq.SenderHalf, arq.ReceiverHalf](t, reg.Defaults(8*sim.Millisecond), arqtest.Options{Pipe: pipe, Seed: 9})
		}
		t.Run(name+"/lossy", func(t *testing.T) {
			sc := newScenario(t)
			m := sc.Metrics()
			sc.EnqueueAll(n, 256)
			sc.Sched.RunFor(30 * sim.Millisecond)
			sc.Stop()
			if held := sc.Reclaimed(n); len(sc.Got) == 0 || len(held) == 0 {
				t.Fatalf("not stopped mid-transfer: %d delivered, %d held", len(sc.Got), len(held))
			}
			if sc.Enqueue(arq.Datagram{ID: n}) {
				t.Error("stopped pair accepted a datagram")
			}
			if !sc.Failed() {
				t.Error("stopped pair does not report Failed")
			}
			if sc.Metrics() != m {
				t.Error("unsplit pair's Metrics() pointer changed over the run")
			}
			if got := m.Delivered.Value(); got < uint64(len(sc.Got)) {
				t.Errorf("shared Metrics block saw %d deliveries, callback saw %d", got, len(sc.Got))
			}
		})
		// Oldest first: on a dead link nothing is released or renumbered,
		// so Reclaim must hand back exactly the enqueue order.
		t.Run(name+"/order", func(t *testing.T) {
			sc := newScenario(t)
			sc.Link.Fail()
			sc.EnqueueAll(n, 256)
			sc.Sched.RunFor(sim.Millisecond)
			sc.Stop()
			held := sc.Reclaim()
			if len(held) != n {
				t.Fatalf("Reclaim returned %d of %d datagrams", len(held), n)
			}
			for i, dg := range held {
				if dg.ID != uint64(i) {
					t.Fatalf("Reclaim()[%d] is datagram %d: not oldest first", i, dg.ID)
				}
			}
		})
	}
}
