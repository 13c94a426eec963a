package main

import (
	"regexp"
	"strings"
	"testing"
)

// lamsconst runs the command in-process and returns its exit status and output.
func lamsconst(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRejects: every configuration shard.Run refuses is input the flags
// described, so it exits 2 with one line naming the problem — not 1, the
// status of a run that failed.
func TestRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sats", "63"}, "63 is not a perfect square"},
		{[]string{"-shards", "0"}, "shard: 0 shards for 64 satellites"},
		{[]string{"-datagrams", "-1"}, "shard: flows, datagrams/flow and payload must be positive"},
		{[]string{"-rate", "0"}, "shard: rate must be positive"},
		{[]string{"-rate", "NaN"}, "shard: rate must be positive"},
		{[]string{"-rate", "1e-300"}, "shard: rate 1e-300 bits/s below"},
		{[]string{"-alt", "NaN"}, "walker altitude NaN m must be positive and finite"},
		{[]string{"-alt", "Inf"}, "walker altitude +Inf m must be positive and finite"},
		{[]string{"-incl", "NaN"}, "walker inclination NaN° must be finite"},
		{[]string{"-payload", "100000000000000"}, "shard: payload 100000000000000 bytes above the 65524"},
		{[]string{"-proto", "bogus"}, `unknown protocol "bogus"`},
	} {
		code, out, errOut := lamsconst(tc.args...)
		if code != 2 || out != "" || !strings.HasPrefix(errOut, "lamsconst: ") ||
			strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %q",
				tc.args, code, out, errOut, tc.want)
		}
	}
}

// TestExtremeButValidInputRuns: a crawling link (a frame due days past the
// 30 s horizon) and more flows than satellite pairs are input a run can
// honour. Each once ran out of memory — the first growing a mailbox ring
// until the frame's far-off round fit, the second preallocating every
// requested flow — and each must print its report.
func TestExtremeButValidInputRuns(t *testing.T) {
	for _, args := range [][]string{{"-rate", "0.1"}, {"-flows", "1000000000"}} {
		args = append([]string{"-sats", "64", "-datagrams", "2"}, args...)
		if code, out, errOut := lamsconst(args...); code != 0 || !strings.Contains(out, "constellation: sats=64") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 0 and the report", args, code, out, errOut)
		}
	}
}

// hostile are the values TestHostileFlagValues gives each numeric flag, by
// the type name the usage text prints.
var hostile = map[string][]string{
	"float":    {"NaN", "+Inf", "-Inf", "1e300", "-1e300", "1e-300", "0"},
	"duration": {"-1ns", "0", "2562047h"},
}

// numericFlag matches a float or duration flag's line in the usage text.
var numericFlag = regexp.MustCompile(`(?m)^  -(\S+) (float|duration)$`)

// TestHostileFlagValues sweeps every float flag through NaN, ±Inf, ±1e300,
// 1e-300 and 0, and every duration flag through −1ns, 0 and the longest
// duration, reading the flags off the usage text so that a flag added later
// is swept too. A
// -horizon of the longest duration is left out: it is a legitimately long
// run (about 292 years of virtual time), not a defect. Each run must exit 0, 1 or 2, and none may panic.
func TestHostileFlagValues(t *testing.T) {
	_, _, usage := lamsconst("-h")
	flags := numericFlag.FindAllStringSubmatch(usage, -1)
	if len(flags) == 0 {
		t.Fatalf("no numeric flag in the usage text:\n%s", usage)
	}
	for _, fl := range flags {
		for _, v := range hostile[fl[2]] {
			if fl[1] == "horizon" && v == "2562047h" {
				continue
			}
			args := []string{"-sats", "64", "-datagrams", "2", "-" + fl[1] + "=" + v}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%v: panic: %v", args, p)
					}
				}()
				if code, _, errOut := lamsconst(args...); code < 0 || code > 2 {
					t.Errorf("%v: exit %d, stderr %q", args, code, errOut)
				}
			}()
		}
	}
}
