package faults

import (
	"fmt"
	"strings"

	"repro/internal/arq"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Violation is one observed breach of the §3.2 contract.
type Violation struct {
	At     sim.Time
	Rule   string // short rule id, e.g. "recovery-entry"
	Detail string
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("t=%v [%s] %s", v.At, v.Rule, v.Detail)
}

// Checker asserts the paper's reliability and recovery contract over one
// ARQ run, from outside the protocol: it observes state transitions through
// an arq.Probe and the datagram flow through wrapped workload/delivery
// callbacks, and accumulates violations instead of panicking so a single
// run can report every breach it provoked. The recovery and numbering rules
// key off probe callbacks only a checkpointing engine fires, so against an
// HDLC baseline (zero arq.RecoveryWindows) the applicable subset — no-loss,
// duplicates, completion, and the recovery-gate after a declared failure —
// runs and the rest stays dormant.
//
// The rules (DESIGN.md §9 states them with their derivations):
//
//	recovery-entry   Enforced Recovery begins only after a full
//	                 CheckpointTimerTimeout of checkpoint silence.
//	recovery-exit    Recovery ends only on an Enforced-NAK/Resolving
//	                 response the sender actually heard at that instant.
//	recovery-gate    No first transmissions while recovering or failed.
//	failure-window   Link failure is declared only from recovery, only
//	                 after a full FailureTimeout of response silence, and
//	                 never while checkpoints flowed after the solicitation.
//	numbering        No live sequence-number incarnation outlives
//	                 max(ResolvingPeriod, RoundTrip) plus the observed
//	                 checkpoint gap — the §2.3 bound that keeps the
//	                 numbering size finite.
//	no-loss          Every accepted datagram is delivered or still held by
//	                 the sender at the end of the run.
//	duplicates       A datagram delivered k times was transmitted at least
//	                 k times (duplicates stem only from retransmission).
//	completion       With RequireCompletion and no declared failure, every
//	                 accepted datagram is delivered by the end of the run —
//	                 the rule that catches a permanently halted link.
//	convergence      (SetCorruption) Under a state-corruption schedule the
//	                 contract is the Dolev self-stabilization guarantee:
//	                 bounded casualties while the adversary runs, then legal
//	                 executions forever. Violations timestamped inside the
//	                 corruption era plus the engine's convergence bound are
//	                 excused (recorded separately); anything after the
//	                 deadline is a real breach — the engine failed to
//	                 stabilize. End-of-run rules are excused per datagram:
//	                 a loss is excused only if the datagram was submitted
//	                 before the deadline (a corruption-era casualty), a
//	                 duplicate or unsolicited delivery only if its last
//	                 delivery predates the deadline.
type Checker struct {
	w arq.RecoveryWindows

	// RequireCompletion enables the completion rule at Finish. Leave it
	// set (the default from NewChecker) whenever the run's horizon
	// comfortably covers the fault schedule plus recovery settle time.
	RequireCompletion bool

	// Now, when non-nil, supplies the virtual clock WrapSink stamps
	// submissions with. Engines set Datagram.EnqueuedAt on their own copy
	// inside Enqueue — the sink wrapper never sees it — so without a clock
	// every submission reads t=0 and the convergence rule would excuse
	// post-deadline losses as era casualties. The harness installs the
	// scheduler's clock whenever it arms a corruption window.
	Now func() sim.Time

	probe arq.Probe

	submitted   []uint64
	submitSet   map[uint64]bool
	delivered   map[uint64]int
	transmitted map[uint64]int // total tx per datagram (first + retx)
	liveTx      map[uint32]txRecord

	recovering   bool
	lastCpHeard  sim.Time
	haveCp       bool
	lastEnforced sim.Time
	haveEnforced bool
	lastReqNAK   sim.Time
	haveReq      bool
	failed       bool

	// Corruption era (SetCorruption): [corrStart, corrEnd] is the scheduled
	// adversary window, corrDeadline = corrEnd + the engine's convergence
	// bound. submitAt/deliverAt give the end-of-run rules per-datagram
	// timestamps to classify against the deadline.
	haveCorr     bool
	corrStart    sim.Time
	corrEnd      sim.Time
	corrDeadline sim.Time
	submitAt     map[uint64]sim.Time
	deliverAt    map[uint64]sim.Time
	lastBreach   sim.Time

	violations []Violation
	excused    []Violation
}

type txRecord struct {
	dgID uint64
	at   sim.Time
}

// NewChecker builds a checker for endpoints whose recovery timing is w
// (arq.WindowsProvider yields it from an engine config; the zero value is
// correct for engines without enforced recovery). Install its Probe() on
// the pair before Start, wrap the workload sink and delivery callback, run,
// then call Finish.
func NewChecker(w arq.RecoveryWindows) *Checker {
	c := &Checker{
		w:                 w,
		RequireCompletion: true,
		submitSet:         make(map[uint64]bool),
		delivered:         make(map[uint64]int),
		transmitted:       make(map[uint64]int),
		liveTx:            make(map[uint32]txRecord),
		submitAt:          make(map[uint64]sim.Time),
		deliverAt:         make(map[uint64]sim.Time),
	}
	c.probe = arq.Probe{
		CheckpointHeard:   c.onCheckpointHeard,
		RecoveryStarted:   c.onRecoveryStarted,
		RequestNAKSent:    c.onRequestNAK,
		RecoveryEnded:     c.onRecoveryEnded,
		FailureDeclared:   c.onFailure,
		FirstTransmission: c.onFirstTx,
		Retransmitted:     c.onRetx,
		Released:          c.onReleased,
	}
	return c
}

// Probe returns the transition observer to install on the pair.
func (c *Checker) Probe() *arq.Probe { return &c.probe }

// SetCorruption arms the convergence rule for a state-corruption schedule
// running over [start, end]: breaches timestamped up to end+bound are
// excused as corruption-era casualties (Excused lists them), and everything
// later stays a real violation — the self-stabilization contract. bound is
// the engine's arq.StabilizationBound (or the harness fallback).
func (c *Checker) SetCorruption(start, end sim.Time, bound sim.Duration) {
	c.haveCorr = true
	c.corrStart = start
	c.corrEnd = end
	c.corrDeadline = end.Add(bound)
}

// Excused returns the corruption-era breaches the convergence rule waved
// through. E20 reads their spread; an empty list under an aggressive
// schedule usually means the adversary never actually bit.
func (c *Checker) Excused() []Violation { return c.excused }

// ConvergenceTime returns the measured stabilization time: how long after
// the corruption era closed the last breach (excused or real) landed. Zero
// when the engine never breached after the era closed.
func (c *Checker) ConvergenceTime() sim.Duration {
	if !c.haveCorr || c.lastBreach <= c.corrEnd {
		return 0
	}
	return c.lastBreach.Sub(c.corrEnd)
}

// WrapSink interposes submission tracking on a workload sink. Only
// accepted datagrams (inner returned true) enter the contract.
func (c *Checker) WrapSink(inner workload.Sink) workload.Sink {
	return func(dg arq.Datagram) bool {
		ok := inner(dg)
		if ok && !c.submitSet[dg.ID] {
			c.submitSet[dg.ID] = true
			c.submitted = append(c.submitted, dg.ID)
			at := dg.EnqueuedAt
			if c.Now != nil {
				at = c.Now()
			}
			c.submitAt[dg.ID] = at
		}
		return ok
	}
}

// WrapDeliver interposes delivery tracking on a delivery callback (inner
// may be nil).
func (c *Checker) WrapDeliver(inner arq.DeliverFunc) arq.DeliverFunc {
	return func(now sim.Time, dg arq.Datagram, seq uint32) {
		c.delivered[dg.ID]++
		c.deliverAt[dg.ID] = now
		if inner != nil {
			inner(now, dg, seq)
		}
	}
}

func (c *Checker) violate(at sim.Time, rule, format string, args ...any) {
	v := Violation{At: at, Rule: rule, Detail: fmt.Sprintf(format, args...)}
	if c.haveCorr && at > 0 {
		if at > c.lastBreach {
			c.lastBreach = at
		}
		if at >= c.corrStart && at <= c.corrDeadline {
			// Corruption-era casualty: the self-stabilization contract
			// tolerates it, the convergence measurement records it.
			c.excused = append(c.excused, v)
			return
		}
	}
	c.violations = append(c.violations, v)
}

// excuseFinish routes an end-of-run breach whose per-datagram evidence
// predates the convergence deadline into the excused list. at is the
// datagram's classifying timestamp (submission for loss rules, last
// delivery for duplicate rules).
func (c *Checker) excuseFinish(at sim.Time, rule, format string, args ...any) bool {
	if !c.haveCorr || at > c.corrDeadline {
		return false
	}
	if at > c.lastBreach {
		c.lastBreach = at
	}
	c.excused = append(c.excused, Violation{At: at, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	return true
}

func (c *Checker) onCheckpointHeard(now sim.Time, serial uint32, enforced bool) {
	// numbering: between this checkpoint and the previous one the sender
	// had no opportunity to sweep, so every live incarnation must be
	// younger than the steady-state bound stretched by the observed gap.
	// The sweep the sender is about to run keeps the bound inductive.
	gap := now.Sub(c.lastCpHeard) // from t=0 when this is the first
	bound := c.w.ResolvingPeriod
	if rt := c.w.RoundTrip; rt > bound {
		bound = rt
	}
	bound += gap
	for seq, rec := range c.liveTx {
		if age := now.Sub(rec.at); age > bound {
			c.violate(now, "numbering", "seq %d (datagram %d) unresolved for %v, bound %v (resolving period %v + checkpoint gap %v)",
				seq, rec.dgID, age, bound, c.w.ResolvingPeriod, gap)
		}
	}
	c.lastCpHeard, c.haveCp = now, true
	if enforced {
		c.lastEnforced, c.haveEnforced = now, true
	}
}

func (c *Checker) onRecoveryStarted(now sim.Time) {
	if c.recovering {
		c.violate(now, "recovery-entry", "recovery re-entered while already recovering")
	}
	silence := now.Sub(c.lastCpHeard) // from t=0 before the first checkpoint
	if min := c.w.CheckpointTimer; silence < min {
		c.violate(now, "recovery-entry", "recovery entered after only %v of checkpoint silence, want >= %v", silence, min)
	}
	c.recovering = true
}

func (c *Checker) onRequestNAK(now sim.Time, serial uint32) {
	if !c.recovering {
		c.violate(now, "recovery-entry", "Request-NAK %d sent outside Enforced Recovery", serial)
	}
	c.lastReqNAK, c.haveReq = now, true
}

func (c *Checker) onRecoveryEnded(now sim.Time, enforced bool) {
	if !c.recovering {
		c.violate(now, "recovery-exit", "recovery ended while not recovering")
	}
	if !enforced {
		c.violate(now, "recovery-exit", "recovery ended by a non-enforced checkpoint")
	}
	if !c.haveEnforced || c.lastEnforced != now {
		c.violate(now, "recovery-exit", "recovery ended with no Enforced-NAK heard at this instant")
	}
	c.recovering = false
}

func (c *Checker) onFailure(now sim.Time, reason string) {
	defer func() { c.failed = true; c.recovering = false }()
	if c.w.FailureTimeout == 0 {
		// No enforced-recovery protocol to validate (an HDLC baseline's N2
		// declaration): record the failure so the recovery-gate and
		// completion rules adjust, and skip the solicitation-window rules.
		return
	}
	if strings.Contains(reason, "lifetime") {
		// Lifetime-based declarations (§3.2's unrecoverable case) bypass
		// the solicitation protocol by design.
		return
	}
	if !c.recovering {
		c.violate(now, "failure-window", "failure declared outside Enforced Recovery: %s", reason)
		return
	}
	if !c.haveReq {
		c.violate(now, "failure-window", "failure declared with no Request-NAK ever sent")
		return
	}
	if silence := now.Sub(c.lastReqNAK); silence < c.w.FailureTimeout {
		c.violate(now, "failure-window", "failure declared %v after the last solicitation, want >= %v", silence, c.w.FailureTimeout)
	}
	if c.haveCp && c.lastCpHeard > c.lastReqNAK {
		c.violate(now, "failure-window", "failure declared although checkpoints arrived after the last solicitation")
	}
}

func (c *Checker) onFirstTx(now sim.Time, seq uint32, dgID uint64) {
	if c.recovering {
		c.violate(now, "recovery-gate", "new I-frame (seq %d) transmitted during Enforced Recovery", seq)
	}
	if c.failed {
		c.violate(now, "recovery-gate", "new I-frame (seq %d) transmitted after declared failure", seq)
	}
	c.liveTx[seq] = txRecord{dgID: dgID, at: now}
	c.transmitted[dgID]++
}

func (c *Checker) onRetx(now sim.Time, oldSeq, newSeq uint32, dgID uint64, cause arq.RetxCause) {
	if _, ok := c.liveTx[oldSeq]; !ok {
		c.violate(now, "numbering", "retransmission retires unknown incarnation seq %d", oldSeq)
	}
	delete(c.liveTx, oldSeq)
	c.liveTx[newSeq] = txRecord{dgID: dgID, at: now}
	c.transmitted[dgID]++
}

func (c *Checker) onReleased(now sim.Time, seq uint32, dgID uint64) {
	if _, ok := c.liveTx[seq]; !ok {
		c.violate(now, "numbering", "release of unknown incarnation seq %d", seq)
	}
	delete(c.liveTx, seq)
}

// Finish evaluates the end-of-run rules and returns every violation
// accumulated over the run. unreleased is the sender's remaining buffer
// (arq.Pair.Reclaim) — datagrams the contract still charges to the sender
// rather than counting as lost.
func (c *Checker) Finish(unreleased []arq.Datagram) []Violation {
	held := make(map[uint64]bool, len(unreleased))
	for _, dg := range unreleased {
		held[dg.ID] = true
	}
	for _, id := range c.submitted {
		n := c.delivered[id]
		if n == 0 && !held[id] {
			if !c.excuseFinish(c.submitAt[id], "no-loss", "datagram %d accepted but neither delivered nor held by the sender (corruption-era casualty)", id) {
				c.violate(0, "no-loss", "datagram %d accepted but neither delivered nor held by the sender", id)
			}
		}
		if n == 0 && !c.failed && c.RequireCompletion {
			if !c.excuseFinish(c.submitAt[id], "completion", "datagram %d undelivered at end of run (corruption-era casualty)", id) {
				c.violate(0, "completion", "datagram %d undelivered at end of run with no declared failure", id)
			}
		}
		if n > 1 && c.transmitted[id] < n {
			if !c.excuseFinish(c.deliverAt[id], "duplicates", "datagram %d delivered %d times, transmitted %d (corruption-era duplicate)", id, n, c.transmitted[id]) {
				c.violate(0, "duplicates", "datagram %d delivered %d times but transmitted only %d times", id, n, c.transmitted[id])
			}
		}
	}
	for id := range c.delivered {
		if len(c.submitSet) > 0 && !c.submitSet[id] {
			if !c.excuseFinish(c.deliverAt[id], "no-loss", "datagram %d delivered but never accepted (ghost-era delivery)", id) {
				c.violate(0, "no-loss", "datagram %d delivered but never accepted from the workload", id)
			}
		}
	}
	return c.violations
}
