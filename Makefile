# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

.PHONY: build test race bench bench-check bench-baseline bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the one list of concurrency-heavy packages; CI calls this
# target. It includes every MVCC-touched package (cond and query read
# lock-free against version chains, btree probes race the version GC's
# deferred index cleanup), and internal/plan, whose differential suite
# runs with committers racing the pinned snapshot readers.
race:
	$(GO) test -race ./internal/rule/ ./internal/txn/ ./internal/lock/ \
		./internal/storage/ ./internal/wal/ ./internal/event/ \
		./internal/cep/ ./internal/object/ ./internal/core/ \
		./internal/server/ ./internal/failpoint/ ./internal/cond/ \
		./internal/btree/ ./internal/query/ ./internal/repl/ \
		./internal/plan/

bench:
	$(GO) test -run '^$$' -bench . -benchtime 0.5s .

# bench-check vets and tests the nested benchmark/ module, which
# `go test ./...` does not descend into: an engine API change that
# breaks the repo benchmark (BENCHMARK.json) fails here.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# bench-baseline re-measures the C16 parallel-scalability cells, the
# C17 composite-event cells, the C18 snapshot-scan race, the C19
# replication cells, the C20 planner join cells, the C21
# parallel-executor cells, and the C22 signal-cost cells, rewriting
# the committed baseline. Run it
# on a quiet machine after a deliberate perf change, and commit
# BENCH_10.json with the change that moved the numbers. On a noisy
# box, run it several times and keep the per-cell max — the committed
# baseline is a ceiling for the gate, not a scoreboard.
bench-baseline:
	$(GO) run ./cmd/hipac-bench -run C16,C17,C18,C19,C20,C21,C22 -json BENCH_10.json

# bench-smoke is the CI regression gate: re-measure and fail if any
# C16-C21 cell is more than 20% slower than the committed baseline
# (skipped with a warning when the host CPU count or GOMAXPROCS
# differs from the baseline's). C22 rides along for its own gate — a
# signal over 10 000 guarded rules within 4x of one over 1 rule, with
# the firing counts checked — until a baseline carries its cells.
bench-smoke:
	$(GO) run ./cmd/hipac-bench -run C16,C17,C18,C19,C20,C21,C22 -compare BENCH_10.json
