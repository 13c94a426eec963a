package hdlc

import (
	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/sim"
)

// init publishes both HDLC baselines in the engine registry under distinct
// names, each forcing its Mode so a name always means one recovery strategy.
// Blank-import repro/internal/engines to link every registered engine into a
// binary.
func init() {
	register(SelectiveRepeat, arq.Registration{Name: "srhdlc", Aliases: []string{"sr", "sr-hdlc", "hdlc"}, Display: "SR-HDLC"})
	register(GoBackN, arq.Registration{Name: "gbn", Aliases: []string{"gbnhdlc", "gbn-hdlc"}, Display: "GBN-HDLC"})
}

func register(mode Mode, r arq.Registration) {
	force := func(c Config) Config {
		c.Mode = mode
		return c
	}
	arq.Register(r,
		func(roundTrip sim.Duration) Config { return force(Defaults(roundTrip)) },
		func(k arq.Knobs) Config { return force(configure(k)) },
		func(sendSched, recvSched *sim.Scheduler, link *channel.Link, cfg Config, deliver arq.DeliverFunc, onFailure arq.FailureFunc) *Pair {
			return NewPair(sendSched, recvSched, link, force(cfg), deliver, onFailure)
		})
}

// configure maps the harness knobs onto an HDLC configuration: absolute
// numbering (no modulus constraint on W) and t_out = R + α. Icp, Cdepth,
// Tproc, RecvCap and SendCap have no counterpart: there is no checkpoint
// process, the receiver has no processing stage, and the window is the only
// buffer bound.
func configure(k arq.Knobs) Config {
	cfg := Defaults(k.RoundTrip)
	cfg.WindowSize = k.W
	cfg.ModulusBits = 0
	cfg.Timeout = k.RoundTrip + k.Alpha
	cfg.Stutter = k.Stutter
	cfg.MaxTimeouts = k.N2
	cfg.Metrics = k.Metrics
	return cfg
}
