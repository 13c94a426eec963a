package bench

import (
	"flag"
	"fmt"
	"math"
	"time"

	"repro/internal/channel"
	"repro/internal/orbit"
	"repro/internal/sim"
)

// ScenarioFlags are the flags that describe one run's traffic, link and
// protocol parameters on every CLI (lamsim: the scenario; lamsweep: the base
// point a sweep varies), declared and decided once. BindScenarioFlags
// registers them; after the flag set has parsed, RunConfig is what they say.
type ScenarioFlags struct {
	N, Payload, Cdepth, W int
	Rate, Km, BER, PF, PC float64
	IModel, CModel        string
	Icp, Alpha, Horizon   time.Duration
	Seed                  uint64
}

// BindScenarioFlags registers the scenario flags on fs; horizon is the
// virtual-time safety stop's default, the one default the CLIs differ in.
func BindScenarioFlags(fs *flag.FlagSet, horizon time.Duration) *ScenarioFlags {
	f := new(ScenarioFlags)
	fs.IntVar(&f.N, "n", 2000, "datagrams per run")
	fs.IntVar(&f.Payload, "payload", 1024, "payload bytes per datagram")
	fs.Float64Var(&f.Rate, "rate", 300e6, "link rate, bits/s")
	fs.Float64Var(&f.Km, "km", 4000, "link distance, km")
	fs.StringVar(&f.IModel, "imodel", "", "I-frame error model spec: "+channel.SpecGrammar())
	fs.StringVar(&f.CModel, "cmodel", "", "control-frame error model spec (same grammar)")
	fs.Float64Var(&f.BER, "ber", 0, "channel BER through the link FEC: sugar for -imodel bsc:ber=B,fec=hamming74 -cmodel bsc:ber=B,fec=rep3 (ignored when a spec is given)")
	fs.Float64Var(&f.PF, "pf", -1, "fixed I-frame error probability: sugar for -imodel fixed:p=PF -cmodel fixed:p=PC (overrides -ber; ignored when a spec is given)")
	fs.Float64Var(&f.PC, "pc", -1, "fixed control-frame error probability (with -pf; default 0)")
	fs.DurationVar(&f.Icp, "icp", 10*time.Millisecond, "LAMS checkpoint interval W_cp")
	fs.IntVar(&f.Cdepth, "cdepth", 3, "LAMS cumulation depth C_depth")
	fs.IntVar(&f.W, "w", 64, "HDLC window size")
	fs.DurationVar(&f.Alpha, "alpha", 13*time.Millisecond, "HDLC timeout slack α")
	fs.Uint64Var(&f.Seed, "seed", 1, "simulation seed")
	fs.DurationVar(&f.Horizon, "horizon", horizon, "virtual-time safety stop per run")
	return f
}

// RunConfig returns the run the parsed flags describe, Protocol left for the
// caller. Channel models are named by spec only: explicit -imodel/-cmodel
// win, otherwise -ber/-pf/-pc expand through channel.LegacySpecs — the one
// place the sugar is decided — and either way both specs are validated here,
// so Run never panics on what a user typed.
func (f *ScenarioFlags) RunConfig() (RunConfig, error) {
	// The distance's one-way delay must be a sim.Duration; NaN fails the
	// test as written.
	if maxKm := orbit.RangeForDelay(math.MaxInt64) / 1e3; !(f.Km >= 0 && f.Km < maxKm) {
		return RunConfig{}, fmt.Errorf("-km %g out of [0,%.3g)", f.Km, maxKm)
	}
	c := RunConfig{
		N:            f.N,
		PayloadBytes: f.Payload,
		RateBps:      f.Rate,
		OneWay:       orbit.PropagationDelay(f.Km * 1e3),
		IModelSpec:   f.IModel,
		CModelSpec:   f.CModel,
		Icp:          f.Icp,
		Cdepth:       f.Cdepth,
		W:            f.W,
		Alpha:        f.Alpha,
		Tproc:        10 * sim.Microsecond,
		Seed:         f.Seed,
		Horizon:      f.Horizon,
	}
	// -1 is -pf/-pc left unset; any other value is a probability or an
	// error naming the flag, whether or not an explicit spec overrides it.
	// NaN fails every comparison, so the range is tested as what is accepted.
	for _, fl := range []struct {
		name     string
		v, unset float64
	}{{"-ber", f.BER, 0}, {"-pf", f.PF, -1}, {"-pc", f.PC, -1}} {
		if !(fl.v >= 0 && fl.v <= 1) && fl.v != fl.unset {
			return RunConfig{}, fmt.Errorf("%s %g out of [0,1]", fl.name, fl.v)
		}
	}
	if c.IModelSpec == "" && c.CModelSpec == "" {
		c.IModelSpec, c.CModelSpec = channel.LegacySpecs(f.BER, f.PF, f.PC)
	}
	for _, spec := range []string{c.IModelSpec, c.CModelSpec} {
		if _, err := channel.ModelFactory(spec); err != nil {
			return RunConfig{}, err
		}
	}
	return c, nil
}
