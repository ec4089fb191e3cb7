GO ?= go

.PHONY: build test check fmt vet race bench benchdiff

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the pre-merge gate: formatting, static analysis, and the race
# detector over the concurrency-sensitive packages.
check: fmt vet race test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/telemetry/... ./internal/sim/... ./internal/sweep/... ./internal/cluster/... ./internal/par/... ./internal/tensor/... ./internal/store/... ./internal/server/...

# bench runs the benchmark table below, one test2json stream per row, so
# successive PRs leave a perf trajectory in the committed BENCH_*.json files.
# Each row is name:package:-bench pattern:extra flags and writes
# BENCH_<name>.json:
#   sim      tier-1 simulator hot path, including the telemetry-off/on pair
#            (a cell with the full observability stack vs none);
#   sweep    the same 8-job grid serially and across GOMAXPROCS workers
#            (speedup-x);
#   memo     a deliberately duplicated grid with cell memoization on and off
#            (memo-speedup-x);
#   tensor   naive reference kernels vs the blocked serial and
#            blocked+parallel engine at MiniVGG GEMM/conv shapes (speedup-x);
#   store    one grid cold (simulate + persist), warm from disk in a fresh
#            process and warm from the memory tier (disk-/mem-speedup-x);
#   predict  one cold exact cell simulation vs the learned fast path
#            answering the same cell (predict-speedup-x);
#   serve    a duplicate-heavy job storm at the sdserve scheduler, one job
#            at a time and four wide (jobs/s, p95 latency, coalescing).
# Three ratios are gated with sdbenchdiff -ratio once every file is written:
# telemetry-on costs at most $(TELEMETRY_MAX_RATIO)x telemetry-off; the
# predictor's fast path is at least 1/$(PREDICT_MAX_RATIO) = 100x faster per
# cell than exact simulation (parallelism-independent, never skipped); and
# the concurrent storm finishes in at most $(SERVE_MAX_RATIO)x the serial
# wall-clock on a multi-core runner (skipped on one core via the workers
# metric).
TELEMETRY_MAX_RATIO ?= 1.5
PREDICT_MAX_RATIO ?= 0.01
SERVE_MAX_RATIO ?= 0.5

BENCHES = \
	sim:./internal/sim/:.:-benchmem \
	sweep:./internal/sweep/:Grid: \
	memo:./internal/sweep/:SweepMemo:-benchmem \
	tensor:./internal/tensor/:Kernel:-benchmem \
	store:./internal/sweep/:SweepStore:-benchmem \
	predict:./internal/predict/:Predict:-benchmem \
	serve:./internal/server/:ServeStorm:

bench:
	@set -e; for row in $(BENCHES); do \
		set -- $$(echo "$$row" | tr : ' '); \
		echo "$(GO) test -run '^$$' -bench $$3 $$4 -json $$2 > BENCH_$$1.json"; \
		$(GO) test -run '^$$' -bench "$$3" $$4 -json "$$2" > "BENCH_$$1.json"; \
		grep -o '"Output":"Benchmark[^"]*' "BENCH_$$1.json" | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true; \
		echo "wrote BENCH_$$1.json"; \
	done
	$(GO) run ./cmd/sdbenchdiff -ratio RunTelemetryOn/RunTelemetryOff -max-ratio $(TELEMETRY_MAX_RATIO) BENCH_sim.json
	$(GO) run ./cmd/sdbenchdiff -ratio PredictCellFast/PredictCellExact -max-ratio $(PREDICT_MAX_RATIO) BENCH_predict.json
	$(GO) run ./cmd/sdbenchdiff -ratio ServeStormConcurrent/ServeStormSerial -max-ratio $(SERVE_MAX_RATIO) BENCH_serve.json

benchdiff:
	@for f in BENCH_*.json; do \
		if git show HEAD:$$f > /tmp/$$f.base 2>/dev/null; then \
			echo "== $${f%.json}: HEAD vs working tree =="; \
			$(GO) run ./cmd/sdbenchdiff /tmp/$$f.base $$f; \
		fi; \
	done
