package lamsdlc

import "repro/internal/arq"

// init publishes the protocol in the engine registry, so protocol-agnostic
// layers (node, session, bench, faults, the CLIs) can build LAMS-DLC pairs
// by name. Blank-import repro/internal/engines to link every registered
// engine into a binary.
func init() {
	arq.Register(arq.Registration{
		Name:    "lams",
		Aliases: []string{"lamsdlc", "lams-dlc"},
		Display: "LAMS-DLC",
	}, Defaults, configure)
}

// configure maps the harness knobs onto a LAMS-DLC configuration. W, Alpha,
// Stutter and N2 have no counterpart: the protocol has no sliding window,
// and its timeouts derive from W_cp and C_depth.
func configure(k arq.Knobs) Config {
	cfg := Defaults(k.RoundTrip)
	cfg.CheckpointInterval = k.Icp
	cfg.CumulationDepth = k.Cdepth
	cfg.ProcTime = k.Tproc
	cfg.RecvBufferCap = k.RecvCap
	cfg.SendBufferCap = k.SendCap
	cfg.Metrics = k.Metrics
	return cfg
}

// The capabilities consumers discover by type assertion: on a pair's
// halves, and on the configuration it was built from.
var (
	_ arq.SpanReporter      = (*Sender)(nil)
	_ arq.RateReporter      = (*Sender)(nil)
	_ arq.CheckpointRetimer = (*Receiver)(nil)
	_ arq.WindowsProvider   = Config{}
)
