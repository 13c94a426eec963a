# Tier-1 verification (ROADMAP.md): build everything, run everything.
.PHONY: test
test:
	go build ./...
	go test ./...

# CI gate: tier-1 plus static analysis and the race detector. The parallel
# experiment engine (internal/bench) fans simulations across a worker pool,
# so the race run is load-bearing, not ceremony. The -benchtime=100x
# scheduler bench smoke run does not measure anything — it exists to execute
# the timer-wheel benchmark bodies (churn, deep churn, timer restart) under
# the test binary so a regression that only bites the benchmark paths fails
# CI instead of the next perf investigation.
.PHONY: ci
ci: test cover faultmatrix stabmatrix lint allocsmoke memsmoke constsmoke tracesmoke livesmoke specsmoke clismoke tablesmoke
	go test -race ./...
	cd benchmarks && go test .
	go test ./internal/sim -run xxx -bench 'BenchmarkScheduler|BenchmarkTimer' -benchtime 100x -benchmem

# State-corruption gate (ISSUE 9): the scramble/ghost/reorder adversaries
# against every registry engine at seeds 1–5, the workers-1-vs-8
# byte-identical pin on the combined corrupted schedule, the hardened
# spec-grammar coverage, and the ssarq convergence property tests. Runs
# under the race detector: the matrix batches fan across the bench worker
# pool while the injector shares each run's scheduler with the engine, so
# the race run is load-bearing, not ceremony.
.PHONY: stabmatrix
stabmatrix:
	go test ./internal/faults -race -count=1 -run 'TestStabMatrix|TestStabDeterminism|TestParseSpecCorruptionGrammar'
	go test ./internal/ssarq -race -count=1 -run 'TestConvergenceFromScrambledState|TestGhostFloodHarmlessAfterConvergence'

# Constellation smoke (ISSUE 8, 13): the 64-satellite Walker scenario on
# the sharded conservative engine, under the race detector — the
# shards-1-vs-8 and K × GOMAXPROCS byte-identical determinism pins, and the
# engine's own barrier, mailbox and horizon tests. The engine's only unsafe
# surface is the inter-shard mailboxes and the round barrier, so the race
# run here is the load-bearing check, not ceremony. Then the run-phase
# allocation budget of the 1,024-satellite scenario (ROADMAP 1(c)), counted
# on the second and third constellation of the process (-benchtime 2x after
# the harness's own first iteration), i.e. on the run memory the one before
# donated: 0.30 allocs/event before the hop-to-hop path stopped copying
# packets, 0.13-0.14 while sync.Pools refilled at the collector's whim, 0.041
# since the run memory (ISSUE 22; a cold first run still reads 0.125). The gate
# leaves headroom for growth in what a run cannot hand on (the frames and
# entries still in flight when it stops), not for losing the hand-over. It is
# a ratio counted in one process, so it is machine-independent.
CONST_ALLOCS_PER_EVENT_BUDGET := 0.10
.PHONY: constsmoke
constsmoke:
	go test ./internal/shard -race -count=1 -run 'TestConstellationSmoke|TestConstellationShardInvariance|TestConstellationEveryKEveryP|TestEngine'
	@out=$$(go test ./internal/shard -run xxx -bench 'BenchmarkConstellation1024/shards=1$$' -benchtime 2x -benchmem); \
	status=$$?; echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	allocs=$$(echo "$$out" | awk '$$1 ~ /^BenchmarkConstellation1024/ { for (i = 1; i <= NF; i++) if ($$i == "allocs/event") print $$(i-1) }'); \
	if [ -z "$$allocs" ]; then echo "constsmoke: no allocs/event in bench output"; exit 1; fi; \
	if awk -v a="$$allocs" -v b=$(CONST_ALLOCS_PER_EVENT_BUDGET) 'BEGIN { exit !(a > b) }'; then \
		echo "constsmoke: Constellation1024 allocs/event $$allocs exceeds budget $(CONST_ALLOCS_PER_EVENT_BUDGET)"; exit 1; \
	fi; \
	echo "constsmoke: Constellation1024 allocs/event $$allocs within budget $(CONST_ALLOCS_PER_EVENT_BUDGET)"

# Trace smoke (ISSUE 10): the channel-model registry's malformed-spec
# rejection table, the trace codec round-trip, and the record→replay golden
# pins — seeds 1–5 byte-identical to the live runs they were recorded from,
# and the replay batch byte-identical at workers 1 vs 8. The bench half runs
# under the race detector because replayed TraceSets are shared read-only
# across the worker pool; that sharing is exactly the surface a future
# mutation bug would race on.
.PHONY: tracesmoke
tracesmoke:
	go test ./internal/channel -count=1 -run 'TestParseModel|TestModelNew|TestLegacySpecs|TestTrace|TestRecorder|TestReplay|TestEncode|TestReadTrace|TestImportTwoColumn|TestGESplitClock|TestSpecGrammar'
	go test ./internal/bench -race -count=1 -run 'TestTraceRoundTripSeeds|TestTraceReplayWorkerInvariance|TestTraceReplayEveryEngine|TestAnalyticalModelProb'

# Live wire path smoke (ISSUE 12): the real-time driver under the race
# detector — it is the one package where goroutines share state by design
# (driver mutex, transmit double buffer, reader batches) — then ten seconds
# of each fuzz target against the bytewise stuffing oracle, then the three
# live micro-benchmarks at a fixed iteration count so their bodies cannot
# rot. Nothing here measures; `bash benchmarks/run.sh --workload
# live_loopback` does.
.PHONY: livesmoke
livesmoke:
	go test ./internal/live -race -count=1
	go test ./internal/live -run xxx -fuzz FuzzDeframer -fuzztime 10s
	go test ./internal/live -run xxx -fuzz FuzzStuffRoundTrip -fuzztime 10s
	go test ./internal/live -run xxx -bench 'BenchmarkAppendStuffed1K|BenchmarkDeframerFeed1K|BenchmarkLoopback' -benchtime 100x -benchmem

# Spec smoke (ISSUE 24, ROADMAP 3): everything that reads what a user typed or
# a file holds. The kit's own tests and the four reject tables first (a spec
# the parser merely shrugs at is a run measuring the wrong channel), the
# allocation budget of the parsers bench.Run calls per run, then ten seconds of
# each fuzz target: no input panics a parser, and what one accepts survives
# the round trip through its own rendering. Last, the CLI end of it: a trace
# file whose record count is a lie must cost lamsim an error and exit 2, not a
# stack trace. A crasher a fuzz run finds lands in the package's
# testdata/fuzz/ and is committed with its fix.
.PHONY: specsmoke
specsmoke:
	go test ./internal/spec ./internal/fec -count=1
	go test ./internal/arq ./internal/channel ./internal/faults ./internal/bench -count=1 \
		-run 'TestParseProtocol|TestParseModel|TestParseSpec|TestReadTraceSet|TestImportTwoColumn|TestScenarioFlags|TestParseBudget|TestRunParseBudget'
	go test ./internal/faults -run xxx -fuzz '^FuzzParseSpec$$' -fuzztime 10s
	go test ./internal/channel -run xxx -fuzz '^FuzzParseModel$$' -fuzztime 10s
	go test ./internal/channel -run xxx -fuzz '^FuzzReadTraceSet$$' -fuzztime 10s
	go test ./internal/channel -run xxx -fuzz '^FuzzImportTwoColumn$$' -fuzztime 10s
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf 'LAMSTRC1\001\000\000\377\377\377\377\377\377\177' > "$$tmp/liar.trc"; \
	go run ./cmd/lamsim -n 10 -imodel "trace:file=$$tmp/liar.trc" > /dev/null 2> "$$tmp/err" || true; \
	grep -q '^lamsim: channel: trace: ' "$$tmp/err" && grep -q '^exit status 2$$' "$$tmp/err" || { cat "$$tmp/err"; echo "specsmoke: lamsim did not exit 2 on the malformed trace file"; exit 1; }; \
	echo "specsmoke: reject tables, parse budgets and four fuzz targets clean; $$(head -1 "$$tmp/err")"

# CLI smoke (ISSUE 16, ROADMAP 6(d)): the two scenario CLIs end to end.
# lamsim runs once per registered engine — the list is the registry's own, read
# off the unknown-protocol error — with the §3.2 checker attached (exit 1 on a
# violation or a lost datagram). Then the -pf/-pc sugar must print exactly what
# the specs it expands to print, on both CLIs: bench.BindScenarioFlags is the
# one place that expansion is decided — and where -pf NaN, which compares
# false with everything and used to run a perfect channel, must exit 2.
.PHONY: clismoke
clismoke:
	@set -e; \
	engines=$$(go run ./cmd/lamsim -proto '?' 2>&1 | sed -n 's/.*(registered: \(.*\)).*/\1/p' | tr -d ','); \
	[ -n "$$engines" ] || { echo "clismoke: could not list the registered engines"; exit 1; }; \
	for p in $$engines; do \
		go run ./cmd/lamsim -proto $$p -n 500 -pf 0.05 -pc 0.0125 -invariants > /dev/null || { echo "clismoke: lamsim -proto $$p -invariants failed"; exit 1; }; \
	done; \
	for cli in "lamsim -n 500" "lamsweep -param km -values 2000,8000 -n 300 -protos $$(echo $$engines | tr ' ' ,)"; do \
		sugar=$$(go run ./cmd/$$cli -pf 0.05 -pc 0.0125); \
		specs=$$(go run ./cmd/$$cli -imodel fixed:p=0.05 -cmodel fixed:p=0.0125); \
		[ -n "$$sugar" ] && [ "$$sugar" = "$$specs" ] || { echo "clismoke: $$cli: -pf/-pc and the fixed: specs print different runs"; exit 1; }; \
	done; \
	for cli in lamsim lamsweep; do \
		out=$$(go run ./cmd/$$cli -n 100 -pf NaN 2>&1 > /dev/null || true); \
		echo "$$out" | grep -q -- '-pf NaN out of \[0,1\]' && echo "$$out" | grep -q '^exit status 2$$' || { echo "clismoke: $$cli -pf NaN did not exit 2 naming the flag: $$out"; exit 1; }; \
	done; \
	echo "clismoke: $$engines ran with invariants held; -pf/-pc sugar equals its specs on lamsim and lamsweep; -pf NaN is refused"

# Tables smoke (ISSUE 23): lamstables overlaps its 21 experiments on one run
# budget, so which runs share the machine at any instant depends on -workers
# and on scheduling; the bytes it prints must not. The full run at -workers 1,
# 2 and 8 must hash the same, and `-run E14` must print exactly the E14 block
# of the full run (an experiment alone and an experiment overlapped are the
# same table).
.PHONY: tablesmoke
tablesmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o "$$tmp/lamstables" ./cmd/lamstables; \
	for w in 1 2 8; do "$$tmp/lamstables" -workers $$w > "$$tmp/w$$w.txt"; done; \
	sums=$$(cd "$$tmp" && sha256sum w1.txt w2.txt w8.txt | cut -d' ' -f1 | sort -u); \
	[ "$$(echo "$$sums" | wc -l)" -eq 1 ] || { echo "tablesmoke: lamstables prints different bytes at -workers 1, 2 and 8"; exit 1; }; \
	"$$tmp/lamstables" -run E14 | sed '$$d' > "$$tmp/e14.txt"; \
	awk '/^=== / { on = /^=== E14:/ } on' "$$tmp/w1.txt" > "$$tmp/e14full.txt"; \
	[ -s "$$tmp/e14.txt" ] && cmp -s "$$tmp/e14.txt" "$$tmp/e14full.txt" || { echo "tablesmoke: -run E14 differs from the E14 block of the full run"; exit 1; }; \
	echo "tablesmoke: lamstables sha256 $$sums at -workers 1, 2, 8; -run E14 equals its block of the full run"

# Allocation-budget smoke (ISSUE 6): the E4 sweep must stay inside its
# allocs/op budget — 229,483 before the per-run arena/pool work, ~2,600 with
# sync.Pools, 2,350-2,380 on the run memory at two workers and 2,490 at
# eight (ISSUE 22: what is left is building each run's world, plus the run
# memories of different sizes the workers swap). The budget is the eight-
# worker figure plus a tenth. Runs the real benchmark body, so a recycling
# regression fails CI instead of the next perf investigation.
E4_ALLOC_BUDGET := 2800
.PHONY: allocsmoke
allocsmoke:
	@out=$$(go test . -run xxx -bench BenchmarkE4ThroughputVsTraffic -benchtime 100x -benchmem); \
	status=$$?; echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	allocs=$$(echo "$$out" | awk '$$1 ~ /^BenchmarkE4ThroughputVsTraffic/ { for (i = 1; i <= NF; i++) if ($$i == "allocs/op") print $$(i-1) }'); \
	if [ -z "$$allocs" ]; then echo "allocsmoke: no allocs/op in bench output"; exit 1; fi; \
	if [ "$$allocs" -gt $(E4_ALLOC_BUDGET) ]; then \
		echo "allocsmoke: E4 allocs/op $$allocs exceeds budget $(E4_ALLOC_BUDGET)"; exit 1; \
	fi; \
	echo "allocsmoke: E4 allocs/op $$allocs within budget $(E4_ALLOC_BUDGET)"

# Run-memory smoke (ISSUE 22): the benchmark's link_bulk configuration three
# times in a fresh process. The process's resident high-water mark must stay
# under 32 MiB (10.5 measured; 116 when every run materialised N x 1 KiB of
# payload) and runs 2 and 3 must allocate the same number of objects — the
# allocation count is a property of the run, not of the collector's timing.
# Then the -race pins of the memory's single-owner rule: schedulers adopting
# and donating concurrently, frames changing lists at the shard mailbox.
.PHONY: memsmoke
memsmoke:
	go test ./internal/bench -count=1 -v -run '^TestMemSmoke$$'
	go test ./internal/sim ./internal/frame ./internal/channel ./internal/arq/txq ./internal/shard -race -count=10 \
		-run 'TestFreeList|TestLocal|TestDepot|TestRunMemory|TestRecycle|TestStaleTimer|TestDonated|TestList|TestSendHomes|TestBacklog|TestInFlightWindow|TestCycleNoAllocs|TestEngineRehomes'
	go test ./internal/bench -race -count=1 -run 'TestRunAllocsIndependentOfGC|TestRecycledCounterIsRunLocal'

# Static analysis: vet plus staticcheck, version-pinned through go run so
# no tool install step exists. Offline environments (module proxy
# unreachable, tool not in the local cache) skip the staticcheck half
# instead of failing — vet always runs.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2024.1.1
.PHONY: lint
lint:
	go vet ./...
	@out=$$(go run $(STATICCHECK) ./... 2>&1); status=$$?; \
	if [ $$status -eq 0 ]; then \
		[ -n "$$out" ] && echo "$$out"; \
	elif echo "$$out" | grep -qE 'no such host|dial tcp|connection refused|i/o timeout|cannot find module|missing go.sum entry|proxy.golang.org|no required module provides'; then \
		echo "lint: staticcheck skipped (offline: tool not in module cache)"; \
	else \
		echo "$$out"; exit $$status; \
	fi

# Recovery-path gate: the §3.2 invariant checker over the seed-pinned fault
# matrix (outage, half-duplex blackout, storm, burst, skew, handover, and
# the combined schedule, seeds 1–5), plus the workers-1-vs-8 determinism
# pins on the faulted batch — including the repeated-config batch that
# catches state leaking across runs through the ISSUE 6 pools. Every PR
# touching recovery, timers, the channel, or pooling runs through this.
.PHONY: faultmatrix
faultmatrix:
	go test ./internal/faults -count=1 -run 'TestFaultMatrix|TestFaultDeterminism'

# Aggregate statement coverage across all packages. The per-function
# breakdown lands in coverage.txt; the baseline is recorded in
# EXPERIMENTS.md so drift is visible in review.
.PHONY: cover
cover:
	go test -coverprofile=coverage.out ./...
	go tool cover -func=coverage.out > coverage.txt
	@tail -1 coverage.txt

# The perf number: lamsbench (benchmarks/, BENCHMARK.json), every workload,
# each in a fresh process, one environment-stamped record per workload on
# stdout (add `-out file.jsonl` to keep them; `lamsbench -compare old.jsonl
# new.jsonl` judges two sets, see benchmarks/README.md). It is the one
# harness since PR 11; BENCH_PR3/6/8.json are the frozen snapshots of the
# `go test -bench` pipeline it replaced and are never rewritten — they stay
# as the history EXPERIMENTS.md cites.
.PHONY: bench
bench:
	bash benchmarks/run.sh -all
