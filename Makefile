# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

.PHONY: build test race fuzz bench bench-check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the one list of concurrency-heavy packages; CI calls this
# target. It includes every MVCC-touched package (cond and query read
# lock-free against version chains, btree probes race the version GC's
# deferred index cleanup), and internal/plan, whose differential suite
# runs with committers racing the pinned snapshot readers. internal/ipc
# holds the call/reply connection's read loop and pending-call table,
# which both internal/client and internal/server run on. internal/datum
# is here for checkptr, which -race turns on: a Value's pointer word and
# a row's cells are unsafe.Pointer arithmetic. internal/obs records
# histograms and spans from many goroutines at once, and
# internal/clock's virtual clock fires timers scheduled concurrently.
race:
	$(GO) test -race ./internal/rule/ ./internal/txn/ ./internal/lock/ \
		./internal/storage/ ./internal/wal/ ./internal/event/ \
		./internal/cep/ ./internal/object/ ./internal/core/ \
		./internal/server/ ./internal/failpoint/ ./internal/cond/ \
		./internal/btree/ ./internal/query/ ./internal/repl/ \
		./internal/plan/ ./internal/ipc/ ./internal/client/ \
		./internal/datum/ ./internal/obs/ ./internal/clock/

# fuzz is the one list of fuzz targets; CI calls this target. go test
# takes one -fuzz pattern per run, so each target runs on its own for
# FUZZTIME.
FUZZTIME ?= 20s
FUZZ_TARGETS = \
	FuzzDecodeRedo:./internal/storage/ \
	FuzzDecodeRow:./internal/datum/ \
	FuzzSnapshotLoad:./internal/storage/ \
	FuzzDeltaSnapshot:./internal/storage/ \
	FuzzReplay:./internal/wal/ \
	FuzzCompositeSpec:./internal/event/ \
	FuzzReplStream:./internal/repl/ \
	FuzzIPCRead:./internal/ipc/ \
	FuzzIPCBody:./internal/ipc/ \
	FuzzPlan:./internal/plan/

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t%%:*} $${t#*:}"; \
		$(GO) test -run='^$$' -fuzz="^$${t%%:*}$$" -fuzztime=$(FUZZTIME) "$${t#*:}"; \
	done

# bench runs every per-claim microbenchmark once, briefly; to measure
# one, run it by name with -count and -cpu and compare commits with
# benchstat. End-to-end claims go through `bash benchmark/run.sh`.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 0.5s .

# bench-check vets and tests the nested benchmark/ module, which
# `go test ./...` does not descend into: an engine API change that
# breaks the repo benchmark (BENCHMARK.json) fails here.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# loc prints the number of non-test Go lines outside benchmark/, the
# size the project tracks from change to change.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' ':!:*_test.go' ':!:benchmark/' | xargs cat | wc -l
