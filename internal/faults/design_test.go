package faults

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// kindTable renders the kinds table as the markdown DESIGN.md §9.1 prints:
// one row per kind with the directions it takes, its parameters at their
// defaults (as Event.String spells them; a bare key is one String leaves out
// at its default) and its default duration.
func kindTable(t *testing.T) string {
	var b strings.Builder
	b.WriteString("| kind | `dir=` (default) | parameters (defaults) | duration |\n|---|---|---|---|\n")
	for _, row := range kinds {
		s, err := ParseSpec(row.name + "@0s")
		if err != nil {
			t.Fatalf("%s with no parameters: %v", row.name, err)
		}
		ev := s.Events[0]
		dir := "—"
		switch row.dirs {
		case oneWay:
			dir = fmt.Sprintf("ab, ba (%s)", row.dir)
		case anyDir:
			dir = fmt.Sprintf("ab, ba, both (%s)", row.dir)
		}
		params := "—"
		for i, pr := range row.params {
			if i == 0 {
				params = ""
			} else {
				params += ", "
			}
			params += "`" + pr.key
			if v := pr.show(&ev); v != "" {
				params += "=" + v
			}
			params += "`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", row.name, dir, params, row.dur)
	}
	return b.String()
}

// TestDesignKindTable: the nine-row table in DESIGN.md §9.1 is this package's
// kinds table, printed — a new kind or a changed default shows up here with
// the text to paste.
func TestDesignKindTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if table := kindTable(t); !strings.Contains(string(doc), table) {
		t.Errorf("DESIGN.md §9.1 does not carry the kinds table as the code has it; paste:\n%s", table)
	}
}
