package main

import (
	"testing"

	"repro/internal/bench"
)

// TestDescribeMatchesTable: -list is written by hand; its IDs must be
// exactly the experiments bench resolves, in the order a full run prints.
func TestDescribeMatchesTable(t *testing.T) {
	ids := bench.IDs()
	rows := describe()
	if len(rows) != len(ids) {
		t.Fatalf("describe() lists %d experiments, bench has %d", len(rows), len(ids))
	}
	for i, row := range rows {
		if row[0] != ids[i] {
			t.Errorf("describe()[%d] is %s, bench.All() runs %s there", i, row[0], ids[i])
		}
		if bench.ByID(row[0]) == nil {
			t.Errorf("describe() lists %s, which bench.ByID does not resolve", row[0])
		}
		if row[1] == "" {
			t.Errorf("%s has no title", row[0])
		}
	}
}
