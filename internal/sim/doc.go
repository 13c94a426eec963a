// Package sim provides a deterministic discrete-event simulation kernel.
//
// All protocol evaluation in this repository runs in virtual time: a Scheduler
// owns a hierarchical timer wheel of events (see DESIGN.md §8), and the
// simulation advances by executing the earliest event and jumping the clock
// to its timestamp. Nothing waits on
// the wall clock, so a simulated hour of a 1 Gbps satellite link runs in
// milliseconds, and a run is exactly reproducible from its RNG seed
// (assumption 8 of the paper's link model: deterministic parameters).
//
// The kernel is intentionally tiny:
//
//   - Time and Duration give virtual timestamps with nanosecond resolution.
//   - Scheduler queues callbacks; events may be cancelled through the
//     Handle returned by Schedule.
//   - Timer is a restartable one-shot built on Scheduler, matching how DLC
//     protocols describe their checkpoint/failure timers.
//   - Queue is the FIFO of every simulated buffer, its storage drawn from
//     the scheduler's run memory.
//   - RNG is a seeded xoshiro256** generator so simulations never depend on
//     global math/rand state.
//
// The kernel is single-goroutine by design: determinism is a correctness
// requirement for the experiments, and the protocols themselves are sans-IO
// state machines (see internal/arq) that need no concurrency to execute.
package sim
