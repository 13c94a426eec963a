package main

import (
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
		{[]string{"-param", "w", "-values", "0"}, `value "0": hdlc: window size must be >= 1`},
	} {
		code, out, errOut := lamsweep(append([]string{"-n", "10"}, tc.args...)...)
		if code != 2 || out != "" || !strings.HasPrefix(errOut, "lamsweep: ") ||
			strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %q",
				tc.args, code, out, errOut, tc.want)
		}
	}
}
