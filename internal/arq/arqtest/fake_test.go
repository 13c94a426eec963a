package arqtest_test

import (
	"slices"
	"testing"

	"repro/internal/arq"
	"repro/internal/sim"
)

// fake is an engine registered in this test binary only: LAMS-DLC's halves
// behind a configuration type the contract has never named, carrying the
// capabilities the rows assert for. Registering it is the only thing that
// puts it under the contract: TestContract runs every row for it with no
// call naming it.
type fake struct{ arq.EngineConfig }

func (f fake) RecoveryWindows() arq.RecoveryWindows {
	return f.EngineConfig.(arq.WindowsProvider).RecoveryWindows()
}

func (f fake) CorruptState(p *arq.Pair, rng *sim.RNG) {
	f.EngineConfig.(arq.StateCorruptor).CorruptState(p, rng)
}

const fakeName = "arqtest-fake"

func init() {
	lams, err := arq.ParseProtocol("lams")
	if err != nil {
		panic(err)
	}
	arq.Register(arq.Registration{Name: fakeName, Display: "fake (LAMS-DLC halves)"},
		func(roundTrip sim.Duration) fake { return fake{lams.Defaults(roundTrip)} },
		func(k arq.Knobs) fake { return fake{lams.Configure(k)} })
}

// TestFakeEngineIsUnderContract: the fake is registered, so the contract's
// rows reach it, and it is exempt from none of them.
func TestFakeEngineIsUnderContract(t *testing.T) {
	if !slices.Contains(arq.Protocols(), fakeName) {
		t.Fatalf("%s not in arq.Protocols() = %v", fakeName, arq.Protocols())
	}
	if len(exempt[fakeName]) != 0 {
		t.Fatalf("%s is exempt from %v", fakeName, exempt[fakeName])
	}
}
