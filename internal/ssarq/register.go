package ssarq

import "repro/internal/arq"

// init publishes SS-ARQ in the engine registry, so every protocol-agnostic
// layer (node, session, bench, faults, the CLIs) can run the
// self-stabilizing engine by name next to LAMS-DLC and the HDLC baselines.
func init() {
	arq.Register(arq.Registration{
		Name:    "ssarq",
		Aliases: []string{"ss", "ss-arq", "stab"},
		Display: "SS-ARQ",
	}, Defaults, configure, NewPair)
}

// configure maps the harness knobs onto an SS-ARQ configuration: the round
// trip, and nothing else. Icp, Cdepth, W, Alpha, Stutter, N2 and Tproc have no
// counterpart (no checkpoints, no window, no failure declaration, no
// processing stage). SendCap and Metrics do (BufferLimit, Metrics) but are
// left at their defaults on purpose: the harness has always run this engine on
// Defaults(roundTrip), that trajectory is pinned by the benchmark's
// link_engines_burst digest, and DESIGN.md §16 records the gap.
func configure(k arq.Knobs) Config { return Defaults(k.RoundTrip) }
