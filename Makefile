# Tier-1 verification (ROADMAP.md): build everything, run everything. Every
# gate is a Go test and runs here: the shape checks of E1–E21, the CLI
# contracts (cmd/*/main_test.go), the allocation budgets and the run-memory
# smoke test (TestE4AllocBudget, TestConstellationAllocBudget — a warm
# 1,024-satellite run at 0.004 allocations per event on one shard and on two —
# TestMemSmoke).
.PHONY: test
test:
	go build ./...
	go test ./...

# CI gate: each check once. `cover` is the one plain run of the suite; the
# race run is load-bearing, not ceremony — the run budget under bench.All(),
# the shard mailboxes and barrier, the live driver and the run memories that
# schedulers hand each other all share state across goroutines. The run-memory
# tests that guard one-owner use run ten times more under -race, and so do the
# engine contract's warm-run rows, which hand every registered engine's run
# memory from one scheduler to the next through the depot (a separate line:
# a -run pattern with a slash would filter the other packages' subtests). Every
# benchmark body runs once, so a regression that bites only a benchmark path
# fails CI instead of the next perf investigation; every example runs once
# and must exit 0; lamsbench's own tests run in its module.
.PHONY: ci
ci:
	go build ./...
	@set -e; for ex in examples/*/; do go run ./$$ex > /dev/null; done
	$(MAKE) cover
	go test -race ./...
	go test ./internal/sim ./internal/frame ./internal/channel ./internal/arq/txq ./internal/node ./internal/shard -race -count=10 \
		-run 'TestFreeList|TestLocal|TestSlices|TestDepot|TestRunMemory|TestRecycle|TestStaleTimer|TestDonated|TestList|TestSendHomes|TestQueue|TestInFlightWindow|TestCycleNoAllocs|TestEngineRehomes|TestPacketBuffers|TestConstellationWarmReuse'
	go test ./internal/arq/arqtest -race -count=10 -run 'TestContract/warm-run'
	$(MAKE) fuzz
	go test -run '^$$' -bench . -benchtime 1x ./...
	$(MAKE) lint
	cd benchmarks && go test .

# Ten seconds of each fuzz target over a parser or decoder of outside input:
# no input panics it, and what it accepts survives the round trip through its
# own rendering. A crasher lands in the package's testdata/fuzz/ and is
# committed with its fix.
.PHONY: fuzz
fuzz:
	@set -e; for target in \
		internal/live:FuzzDeframer internal/live:FuzzStuffRoundTrip \
		internal/faults:FuzzParseSpec internal/channel:FuzzParseModel \
		internal/channel:FuzzReadTraceSet internal/channel:FuzzImportTwoColumn; do \
		go test ./$${target%%:*} -run '^$$' -fuzz "^$${target#*:}$$" -fuzztime 10s; \
	done

# Static analysis: vet plus staticcheck, version-pinned through go run so no
# tool install step exists. GOPROXY=off keeps it offline: when the tool is not
# in the module cache the staticcheck half is skipped instead of failing — vet
# always runs.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2024.1.1
.PHONY: lint
lint:
	go vet ./...
	@if GOPROXY=off go run $(STATICCHECK) -version > /dev/null 2>&1; then \
		GOPROXY=off go run $(STATICCHECK) ./...; \
	else \
		echo "lint: staticcheck skipped (not in the module cache)"; \
	fi

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
