package main

import (
	"strings"
	"testing"
)

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
		{[]string{"-proto", "bogus"}, `unknown protocol "bogus"`},
	} {
		var out, errOut strings.Builder
		code := run(tc.args, &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.HasPrefix(errOut.String(), "lamsconst: ") ||
			strings.Count(errOut.String(), "\n") != 1 || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %q",
				tc.args, code, out.String(), errOut.String(), tc.want)
		}
	}
}
