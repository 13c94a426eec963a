package main

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/arq"
)

// lamsweep runs the command in-process and returns its exit status and output.
func lamsweep(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestProbabilitySugarEqualsSpecs: -pf/-pc are sugar for the fixed: specs at
// every grid point of every registered engine.
func TestProbabilitySugarEqualsSpecs(t *testing.T) {
	grid := []string{"-param", "km", "-values", "2000,8000", "-n", "300", "-protos", strings.Join(arq.Protocols(), ",")}
	codeS, sugar, _ := lamsweep(append(grid, "-pf", "0.05", "-pc", "0.0125")...)
	codeF, specs, _ := lamsweep(append(grid, "-imodel", "fixed:p=0.05", "-cmodel", "fixed:p=0.0125")...)
	if codeS != 0 || codeF != 0 || sugar == "" || sugar != specs {
		t.Fatalf("-pf/-pc (exit %d):\n%s\nfixed: specs (exit %d):\n%s", codeS, sugar, codeF, specs)
	}
}

// TestRejects: a flag or a swept value no run can honour exits 2 with one
// line naming the problem, before any worker starts a run.
func TestRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-pf", "NaN"}, "-pf NaN out of [0,1]"},
		{[]string{"-param", "pf", "-values", "2"}, `value "2": channel: fixed: p=2 out of [0,1]`},
		{[]string{"-param", "n", "-values", "-5"}, `value "-5": bench: negative datagram count -5`},
		{[]string{"-param", "cdepth", "-values", "0"}, `value "0": lamsdlc: cumulation depth must be >= 1`},
		{[]string{"-param", "km", "-values", "-1"}, `value "-1": bench: negative one-way delay`},
		{[]string{"-param", "icp", "-values", "0"}, `value "0": bench: checkpoint interval 0s`},
		{[]string{"-param", "payload", "-values", "-1"}, `value "-1": bench: negative payload size -1`},
		{[]string{"-param", "payload", "-values", "100000"}, `value "100000": bench: payload size 100000 above the 65536`},
		{[]string{"-param", "w", "-values", "0"}, `value "0": hdlc: window size must be >= 1`},
		{[]string{"-rate", "1e-300"}, "link rate 1e-300 bits/s below"},
		{[]string{"-km", "NaN"}, "-km NaN out of [0,"},
	} {
		code, out, errOut := lamsweep(append([]string{"-n", "10"}, tc.args...)...)
		if code != 2 || out != "" || !strings.HasPrefix(errOut, "lamsweep: ") ||
			strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %q",
				tc.args, code, out, errOut, tc.want)
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
// is swept too. Each run must exit 0, 1 or 2, and none may panic.
func TestHostileFlagValues(t *testing.T) {
	_, _, usage := lamsweep("-h")
	flags := numericFlag.FindAllStringSubmatch(usage, -1)
	if len(flags) == 0 {
		t.Fatalf("no numeric flag in the usage text:\n%s", usage)
	}
	for _, fl := range flags {
		for _, v := range hostile[fl[2]] {
			args := []string{"-n", "5", "-protos", "lams", "-values", "1e-6", "-" + fl[1] + "=" + v}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%v: panic: %v", args, p)
					}
				}()
				if code, _, errOut := lamsweep(args...); code < 0 || code > 2 {
					t.Errorf("%v: exit %d, stderr %q", args, code, errOut)
				}
			}()
		}
	}
}
