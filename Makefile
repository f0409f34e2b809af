GO ?= go

.PHONY: check build fmt vet test race tier1 fuzz bench benchdiff benchsmoke perfbenchtest e2e examples tools clean

# The full pre-merge gate: gofmt + vet + build + race-enabled tests +
# tier-1 + the fuzz targets + a single-iteration pass over every
# benchmark so they can't rot + the repo benchmark's self-test (its own
# module, so tier-1 never compiles it against the internal API) + the
# end-to-end scenarios + the runnable examples.
check: fmt vet build race tier1 fuzz benchsmoke perfbenchtest e2e examples

build:
	$(GO) build ./...

# Fails when any tracked Go file is not gofmt-formatted, listing them.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')) && \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Race-enabled run of the concurrency-sensitive packages (the runner
# engine, the exploration that fans out over it, the evaluation cache
# with its sharded outcome index over an append-only arena, the
# cross-core shared pool each TDG holds for every cache built on it, and
# the process-wide free list of attribution graphs and logs that
# attributed runs on every core config borrow, the serving
# layer's singleflight/admission machinery, the fabric's shard
# dispatcher with its work-stealing workers, the persistent store's
# locked LRU index, and the streaming trace pipeline: a chunk pool's
# free list shared by the producer and consumer goroutines, the
# generator sources that fill it and the profile builder they feed).
race:
	$(GO) test -race -count=1 ./internal/runner ./internal/dse ./internal/exocore ./internal/serve ./internal/fabric ./internal/store ./internal/trace ./internal/workloads ./internal/ir

# Tier-1 suite (ROADMAP.md): everything must build and all tests pass.
tier1:
	$(GO) build ./... && $(GO) test ./...

test:
	$(GO) test ./...

# Fuzz past the seed corpora (which tier-1 runs): streaming
# evaluation's chunk boundaries (RunStream over any chunking of a trace
# must equal the attribution-mode Run), the trace split every Run makes
# (Segmentize under any pick of a workload's loops must equal its
# per-instruction reference), the store-forwarding table
# (FuzzStoreTable: any Set/Get/Clear/Keep/ForEach sequence must match a
# Go map plus its first-store order), the unit memo's arena and index
# (FuzzOutcomeTable: any put/get sequence on a memo and its shared pool,
# pool references included, must match Go maps with the first writer
# winning, under colliding hashes), and the bytes that reach the
# process from outside: /v1/evaluate and /v1/sweep bodies, design codes
# and BSA letters, store object frames, persisted unit outcomes and the
# partial documents a fabric coordinator merges must never panic, and
# accepted ones must round-trip; and the document encoder must write
# exactly encoding/json's bytes for any document. A failing input lands
# in the package's testdata/fuzz as a regression case.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRunStreamChunks$$' -fuzztime 10s ./internal/exocore
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentize$$' -fuzztime 3s ./internal/exocore
	$(GO) test -run '^$$' -fuzz '^FuzzStoreTable$$' -fuzztime 3s ./internal/dg
	$(GO) test -run '^$$' -fuzz '^FuzzOutcomeTable$$' -fuzztime 3s ./internal/exocore
	$(GO) test -run '^$$' -fuzz '^FuzzEvalRequest$$' -fuzztime 3s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSweepRequest$$' -fuzztime 3s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseDesignCode$$' -fuzztime 3s ./internal/dse
	$(GO) test -run '^$$' -fuzz '^FuzzParseLetters$$' -fuzztime 3s ./internal/bsa
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeObject$$' -fuzztime 3s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeOutcome$$' -fuzztime 3s ./internal/exocore
	$(GO) test -run '^$$' -fuzz '^FuzzMerge$$' -fuzztime 3s ./internal/report
	$(GO) test -run '^$$' -fuzz '^FuzzDocumentWrite$$' -fuzztime 3s ./internal/report

# Run the tracked benchmarks and record them in BENCH_9.json.
# BENCH_7.json remains as the record of the previous optimization round;
# its "current" values carry over as this round's baselines (same
# machine). StreamedExocoreRun joins the tracked set: its frozen
# baseline is the materialized-path equivalent of the same work,
# measured at the commit that introduced streaming.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkExocoreRun|BenchmarkGraphExocoreRun|BenchmarkStreamedExocoreRun|BenchmarkDSESweep|BenchmarkContextConstruction|BenchmarkServeEvaluate' \
		-benchmem -benchtime=3x . | tee bench.out
	awk -f scripts/bench9json.awk bench.out > BENCH_9.json
	@rm -f bench.out
	@cat BENCH_9.json

# Regression gate: re-measure the tracked benchmarks and fail when any is
# slower than the value recorded in BENCH_9.json by more than the
# tolerance band.
benchdiff:
	$(GO) test -run '^$$' -bench 'BenchmarkExocoreRun|BenchmarkGraphExocoreRun|BenchmarkStreamedExocoreRun|BenchmarkDSESweep|BenchmarkContextConstruction|BenchmarkServeEvaluate' \
		-benchmem -benchtime=3x -count=4 . > bench.out
	awk -f scripts/benchdiff.awk BENCH_9.json bench.out
	@rm -f bench.out

# One iteration of every benchmark: catches compile breaks and panics.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x . > /dev/null

# The repo benchmark's self-test: perfbench/ is a separate module
# (replace exocore => ../), so this is what compiles it against the
# internal API. Runs every workload and the ledger at tiny sizes,
# writing only to test temp dirs.
perfbenchtest:
	cd perfbench && $(GO) test -count=1 .

# End-to-end scenarios (scripts/e2e): the tools are built once into a
# private directory, then the harness checks trace export, the daemon's
# and the telemetry plane's byte identity with the CLI, the graph-family
# grid and the sharded fabric (identity, failover from a replica killed
# mid-shard, warm restart from the store, flag validation). mem (a
# materialized 10M-instruction trace through the µDG, whose transform
# nodes retire at every segment end) and scale (200M streamed
# instructions) bound the memory the whole process
# obtains from the OS, so each runs in a process of its own, under
# GOMEMLIMIT to hold the heap target for the whole run, not just at the
# final measurement.
e2e:
	bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	$(GO) build -o "$$bin/" ./cmd/exocored ./cmd/tdgsim ./cmd/dse ./scripts/e2e && \
	"$$bin/e2e" "$$bin" trace serve obs graph fabric && \
	GOMEMLIMIT=512MiB "$$bin/e2e" "$$bin" mem && \
	GOMEMLIMIT=512MiB "$$bin/e2e" "$$bin" scale

# Run each example program; any non-zero exit fails the target.
examples:
	for e in quickstart customaccel designspace scheduling; do \
		$(GO) run ./examples/$$e > /dev/null || exit 1; \
	done

# Build the drivers into ./bin.
tools:
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin
