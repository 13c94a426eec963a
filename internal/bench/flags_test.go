package bench

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// TestScenarioFlagsRejectNonProbabilities: -pf NaN compared false with
// everything in LegacySpecs and silently ran a perfect channel; so did a
// negative -ber. -1 stays the spelling of "-pf/-pc not given".
func TestScenarioFlagsRejectNonProbabilities(t *testing.T) {
	parse := func(args ...string) (RunConfig, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := BindScenarioFlags(fs, time.Minute)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return f.RunConfig()
	}
	for _, args := range [][]string{
		{"-pf", "NaN"}, {"-pf", "0.1", "-pc", "NaN"}, {"-ber", "NaN"}, {"-pf", "1.5"}, {"-pf", "-0.5"},
		{"-pf", "0.1", "-pc", "2"}, {"-ber", "-1"}, {"-ber", "+Inf"}, {"-pf", "NaN", "-imodel", "perfect"},
	} {
		if _, err := parse(args...); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
			t.Errorf("%v: RunConfig() error = %v, want out of [0,1]", args, err)
		}
	}
	for args, want := range map[string]string{
		"":                  "",
		"-pf 0.05":          "fixed:p=0.05",
		"-pf 0 -pc 1":       "fixed:p=0",
		"-pf -1 -pc -1":     "",
		"-ber 1e-5":         "bsc:ber=1e-05,fec=hamming74",
		"-ber 1 -pf 0.2":    "fixed:p=0.2",
		"-imodel fixed:p=1": "fixed:p=1",
	} {
		c, err := parse(strings.Fields(args)...)
		if err != nil || c.IModelSpec != want {
			t.Errorf("%q: IModelSpec = %q, %v; want %q", args, c.IModelSpec, err, want)
		}
	}
}
