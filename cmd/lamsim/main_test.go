package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arq"
)

// lamsim runs the command in-process and returns its exit status and output.
func lamsim(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestEveryEngineHoldsInvariants: every registered engine carries a lossy
// link's traffic with the §3.2 checker attached; a violation or a lost
// datagram is exit 1.
func TestEveryEngineHoldsInvariants(t *testing.T) {
	engines := arq.Protocols()
	if len(engines) == 0 {
		t.Fatal("no engine registered")
	}
	for _, p := range engines {
		code, out, errOut := lamsim("", "-proto", p, "-n", "500", "-pf", "0.05", "-pc", "0.0125", "-invariants")
		if code != 0 || !strings.Contains(out, "invariants      ok") {
			t.Errorf("-proto %s -invariants: exit %d\n%s%s", p, code, out, errOut)
		}
	}
}

// TestProbabilitySugarEqualsSpecs: -pf/-pc are sugar for the fixed: specs,
// decided once in bench.BindScenarioFlags, so both spellings print one run.
func TestProbabilitySugarEqualsSpecs(t *testing.T) {
	codeS, sugar, _ := lamsim("", "-n", "500", "-pf", "0.05", "-pc", "0.0125")
	codeF, specs, _ := lamsim("", "-n", "500", "-imodel", "fixed:p=0.05", "-cmodel", "fixed:p=0.0125")
	if codeS != 0 || codeF != 0 || sugar == "" || sugar != specs {
		t.Fatalf("-pf/-pc (exit %d):\n%s\nfixed: specs (exit %d):\n%s", codeS, sugar, codeF, specs)
	}
}

// TestRejects: input no run can honour exits 2 with one line naming the
// problem — never a stack trace, never a run that measures nonsense.
func TestRejects(t *testing.T) {
	// A trace file whose record count is a lie: 18 bytes, one stream claiming
	// 2^49-1 records and holding none.
	liar := filepath.Join(t.TempDir(), "liar.trc")
	if err := os.WriteFile(liar, []byte("LAMSTRC1\x01\x00\x00\xff\xff\xff\xff\xff\xff\x7f"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-pf", "NaN"}, "-pf NaN out of [0,1]"},
		{[]string{"-imodel", "trace:file=" + liar}, "channel: trace: "},
		{[]string{"-n", "-5"}, "negative datagram count -5"},
		{[]string{"-km", "-100"}, "negative one-way delay"},
		{[]string{"-icp", "0s"}, "checkpoint interval 0s"},
		{[]string{"-cdepth", "0"}, "cumulation depth must be >= 1"},
		{[]string{"-tproc", "-1us"}, "negative processing time"},
		{[]string{"-payload", "-3"}, "negative payload size -3"},
		{[]string{"-proto", "srhdlc", "-w", "0"}, "window size must be >= 1"},
		{[]string{"-rate", "0"}, "link rate 0 bits/s"},
		{[]string{"-horizon", "-1s"}, "negative horizon"},
	} {
		code, out, errOut := lamsim("", append([]string{"-n", "10"}, tc.args...)...)
		if code != 2 || out != "" || !strings.HasPrefix(errOut, "lamsim: ") ||
			strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %q",
				tc.args, code, out, errOut, tc.want)
		}
	}
}

// frameSamples is `lamsim frame -samples`: the wire bytes of all nine frame
// kinds, as the codec encodes them.
const frameSamples = `I seq=17 dg=3 len=17                          38B  010000001100000000000000030000001175736572207061796c6f616420626974735947977d
CP serial=9 ack=18 naks=[]                    20B  0200000000090000001200000000000000009f29
CP serial=10 ack=18 naks=[12 15]              28B  02000000000a0000001200000000000000020000000c0000000ffe29
CP* serial=11 ack=18 naks=[12 15] stop        28B  02030000000b0000001200000000000000020000000c0000000fc5c8
REQNAK serial=4                                8B  030000000004bdd6
HDLC-I ns=5 nr=3 len=4 P                      30B  0404000000050000000300000000000000000000000468646c63f943b02f
RR nr=6 F                                     12B  05040000000600000000fbbe
REJ nr=4 seq=4                                12B  06000000000400000004e09e
SREJ nr=9 seq=6                               12B  0700000000090000000693df
`

func TestFrameSamplesGolden(t *testing.T) {
	if code, out, errOut := lamsim("", "frame", "-samples"); code != 0 || out != frameSamples {
		t.Fatalf("frame -samples: exit %d\n%s%s\nwant\n%s", code, out, errOut, frameSamples)
	}
}

// TestFrameDecodesSamples feeds the gallery's hex back through `frame`: every
// line decodes to the frame and length it was encoded from.
func TestFrameDecodesSamples(t *testing.T) {
	var hexLines, want strings.Builder
	hexLines.WriteString("# the gallery's encodings\n\n")
	for _, line := range strings.Split(strings.TrimSuffix(frameSamples, "\n"), "\n") {
		fields := strings.Fields(line)
		size, hex := fields[len(fields)-2], fields[len(fields)-1]
		desc := strings.TrimSpace(line[:strings.LastIndex(line, size)])
		hexLines.WriteString(hex + "\n")
		fmt.Fprintf(&want, "%5s  %s\n", size, desc)
	}
	code, out, errOut := lamsim(hexLines.String(), "frame")
	if code != 0 || out != want.String() {
		t.Fatalf("frame on the sample hex: exit %d\n%s%s\nwant\n%s", code, out, errOut, want.String())
	}

	code, _, errOut = lamsim("0200zz\n", "frame")
	if code != 1 || !strings.HasPrefix(errOut, "line 1: bad hex") {
		t.Fatalf("frame on bad hex: exit %d, stderr %q; want exit 1 naming line 1", code, errOut)
	}
}

// passDefault is `lamsim pass` at its default flags.
const passDefault = `constellation: 1000 km altitude, 60° inclination, planes 90° apart, phase 0°
orbital period 1h44m58s; planning horizon 4h0m0s

pass 1: [16m43.600463866s, 35m45.385131835s] (19m1.784667969s)
  range 5212–7132 km   round trip 34.772ms–47.58ms (midrange 41.175ms)
  HDLC timeout slack α ≥ 6.404ms
  LAMS-DLC sizing: holding 46.214ms, transparent buffer 1659 frames (1.7 MB), numbering ≥ 2734
  pass capacity ≈ 42746 MB at η_LAMS(N→large)=1.00

pass 2: [1h9m12.585449218s, 1h28m14.370117187s] (19m1.784667969s)
  range 5212–7132 km   round trip 34.772ms–47.58ms (midrange 41.175ms)
  HDLC timeout slack α ≥ 6.404ms
  LAMS-DLC sizing: holding 46.214ms, transparent buffer 1659 frames (1.7 MB), numbering ≥ 2734
  pass capacity ≈ 42746 MB at η_LAMS(N→large)=1.00

pass 3: [2h1m41.570434569s, 2h20m43.35571289s] (19m1.785278321s)
  range 5212–7132 km   round trip 34.772ms–47.58ms (midrange 41.175ms)
  HDLC timeout slack α ≥ 6.404ms
  LAMS-DLC sizing: holding 46.214ms, transparent buffer 1659 frames (1.7 MB), numbering ≥ 2734
  pass capacity ≈ 42746 MB at η_LAMS(N→large)=1.00

pass 4: [2h54m10.555419921s, 3h13m12.340698241s] (19m1.78527832s)
  range 5212–7132 km   round trip 34.772ms–47.58ms (midrange 41.175ms)
  HDLC timeout slack α ≥ 6.404ms
  LAMS-DLC sizing: holding 46.214ms, transparent buffer 1659 frames (1.7 MB), numbering ≥ 2734
  pass capacity ≈ 42746 MB at η_LAMS(N→large)=1.00

pass 5: [3h46m39.540405273s, 4h0m0s] (13m20.459594727s)
  range 5212–7132 km   round trip 34.772ms–47.58ms (midrange 41.175ms)
  HDLC timeout slack α ≥ 6.404ms
  LAMS-DLC sizing: holding 46.214ms, transparent buffer 1659 frames (1.7 MB), numbering ≥ 2734
  pass capacity ≈ 29968 MB at η_LAMS(N→large)=1.00

total visibility: 1h29m28s of 4h0m0s (37%); FEC: hamming(7,4) / repetition-3
`

func TestPassGolden(t *testing.T) {
	if code, out, errOut := lamsim("", "pass"); code != 0 || out != passDefault {
		t.Fatalf("pass: exit %d\n%s%s\nwant\n%s", code, out, errOut, passDefault)
	}
}
