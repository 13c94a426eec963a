package main

import (
	"strings"
	"testing"
)

// TestListGolden: -list prints bench's own experiment table, byte for byte
// what it printed when the titles were a hand-kept copy in this package.
func TestListGolden(t *testing.T) {
	const golden = `E1   mean transmissions per I-frame (s̄), NAK-only vs pos-ack
E2   low-traffic delivery time D_low(N)
E3   holding time H_frame and transparent buffer size B_LAMS
E4   throughput efficiency η vs channel traffic N
E5   throughput efficiency η vs BER (FEC-derived P_F, P_C)
E6   throughput efficiency η vs link distance
E7   burst errors vs C_depth·W_cp
E8   link-failure detection latency vs C_depth
E9   Stop-Go flow control under receiver overload
E10  bounded numbering size
E11  simulation-vs-analysis validation grid
E12  HDLC D_retrn variant ablation (paper typo)
E13  stutter (SR+ST) idle-time ablation
E14  hybrid ARQ/FEC code-rate trade-off
E15  cost of the in-sequence constraint (GBN vs SR vs LAMS)
E16  delay vs throughput trade-off under rising load
E17  checkpoint interval W_cp ablation
E18  multi-hop relay over every registered engine
E19  constellation-scale sharded simulation (64→1,024 satellites)
E20  state-corruption convergence sweep (scramble/ghost/reorder)
E21  trace-driven channel record/replay over every registered engine
`
	var got strings.Builder
	printList(&got)
	if got.String() != golden {
		t.Errorf("-list prints\n%s\nwant\n%s", got.String(), golden)
	}
}
