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
	var got, errOut strings.Builder
	if code := run([]string{"-list"}, &got, &errOut); code != 0 || got.String() != golden {
		t.Errorf("-list: exit %d\n%s%s\nwant\n%s", code, got.String(), errOut.String(), golden)
	}
}

// TestRunOne: -run prints one experiment's block and the verdict line (E12 is
// analysis only, so this costs no simulation); an unknown ID exits 2 with a
// hint. That the blocks are the same bytes at any -workers, alone or
// overlapped, is internal/bench's TestAllDeterministicAcrossWorkers.
func TestRunOne(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-run", "E12"}, &out, &errOut); code != 0 ||
		!strings.HasPrefix(out.String(), "=== E12: ") ||
		!strings.HasSuffix(out.String(), "\nall 1 experiments passed their shape checks\n") {
		t.Fatalf("-run E12: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-run", "E99"}, &out, &errOut); code != 2 || out.Len() != 0 ||
		errOut.String() != "lamstables: unknown experiment \"E99\" (try -list)\n" {
		t.Fatalf("-run E99: exit %d, stdout %q, stderr %q", code, out.String(), errOut.String())
	}
}
