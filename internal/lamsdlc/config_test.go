package lamsdlc

import (
	"testing"

	"repro/internal/sim"
)

func TestDefaultsValid(t *testing.T) {
	if err := Defaults(20 * sim.Millisecond).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := Defaults(20 * sim.Millisecond)
	mutations := []struct {
		name string
		fn   func(*Config)
	}{
		{"zero checkpoint interval", func(c *Config) { c.CheckpointInterval = 0 }},
		{"zero cumulation depth", func(c *Config) { c.CumulationDepth = 0 }},
		{"negative send buffer", func(c *Config) { c.SendBufferCap = -1 }},
		{"negative recv buffer", func(c *Config) { c.RecvBufferCap = -1 }},
		{"negative retries", func(c *Config) { c.RequestRetries = -1 }},
		{"negative rtt", func(c *Config) { c.RoundTrip = -1 }},
		// C_depth·W_cp products that saturate sim.Scale: the failure and
		// resolving windows degenerate, silently disabling §3.2's failure
		// declaration.
		{"checkpoint timeout saturates", func(c *Config) {
			c.CheckpointInterval = sim.Duration(1 << 62)
			c.CumulationDepth = 4
		}},
		{"failure timeout wraps negative", func(c *Config) {
			// CheckpointTimeout lands just under the horizon without
			// saturating; adding the round trip overflows int64.
			c.CheckpointInterval = sim.Duration(1<<62 - 1)
			c.CumulationDepth = 2
			c.RoundTrip = sim.Second
		}},
	}
	for _, m := range mutations {
		c := base
		m.fn(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestDerivedTimings(t *testing.T) {
	c := Defaults(20 * sim.Millisecond)
	c.CheckpointInterval = 10 * sim.Millisecond
	c.CumulationDepth = 3
	if got := c.CheckpointTimeout(); got != 30*sim.Millisecond {
		t.Fatalf("CheckpointTimeout = %v", got)
	}
	if got := c.ExpectedResponse(); got != 20*sim.Millisecond+c.ProcTime {
		t.Fatalf("ExpectedResponse = %v", got)
	}
	if got := c.FailureTimeout(); got != c.ExpectedResponse()+30*sim.Millisecond {
		t.Fatalf("FailureTimeout = %v", got)
	}
	// R + W_cp/2 + C_depth*W_cp = 20 + 5 + 30 = 55ms
	if got := c.ResolvingPeriod(); got != 55*sim.Millisecond {
		t.Fatalf("ResolvingPeriod = %v", got)
	}
}

func TestNumberingSize(t *testing.T) {
	c := Defaults(20 * sim.Millisecond)
	c.CheckpointInterval = 10 * sim.Millisecond
	c.CumulationDepth = 3
	// Resolving period 55ms; at t_f = 100µs the numbering size must cover
	// 550 outstanding frames (exact division: ceiling changes nothing).
	if got := c.NumberingSize(100 * sim.Microsecond); got != 551 {
		t.Fatalf("NumberingSize = %d, want 551", got)
	}
	if c.NumberingSize(0) != 0 {
		t.Fatal("zero frame time should yield 0")
	}
	if c.NumberingSize(-sim.Millisecond) != 0 {
		t.Fatal("negative frame time should yield 0")
	}
}

// TestNumberingSizeNonDividing pins the ceiling at frame times that do not
// divide the resolving period: truncating 55ms/150µs to 366 undercounted
// the window by one — a frame started at 54.9ms into the period still
// occupies a number.
func TestNumberingSizeNonDividing(t *testing.T) {
	c := Defaults(20 * sim.Millisecond)
	c.CheckpointInterval = 10 * sim.Millisecond
	c.CumulationDepth = 3 // resolving period 55ms
	cases := []struct {
		frameTime sim.Duration
		want      int
	}{
		// 55ms / 150µs = 366.67 → ceil 367 (+1) = 368; truncation gave 367.
		{150 * sim.Microsecond, 368},
		// 55ms / 7ms = 7.857 → ceil 8 (+1) = 9; truncation gave 8.
		{7 * sim.Millisecond, 9},
		// One nanosecond under the period: ceil 2 (+1) = 3.
		{55*sim.Millisecond - 1, 3},
		// Exactly the period: 1 (+1) = 2.
		{55 * sim.Millisecond, 2},
		// Frame time beyond the resolving period: one outstanding frame
		// plus the leading-edge slot.
		{sim.Second, 2},
	}
	for _, tc := range cases {
		if got := c.NumberingSize(tc.frameTime); got != tc.want {
			t.Errorf("NumberingSize(%v) = %d, want %d", tc.frameTime, got, tc.want)
		}
	}
}
