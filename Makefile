# HYDRA reproduction — build, verify and benchmark targets.
#
# `make ci` is the gate that keeps the two historical build breakages
# (missing go.mod, non-constant format string under vet) from regressing:
# it refuses unformatted files, then vets, builds and tests every package.

GO ?= go

.PHONY: ci fmt vet build test race chaos fuzz-smoke bench bench-smoke bench-load bench-chaos bench-linalg bench-save bench-compare bench-serve bench-bundle bench-json bench-micro profile-topk figures world-50k

ci: fmt vet build test chaos bench-smoke bench-load

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race exercises the worker-pool and serving concurrency paths under the
# race detector — the serving engines (world- and bundle-backed,
# TestServe*, including the hot-swap drills), the scatter-gather router
# (TestRouter*), the two-tier prescreen oracles (TestPrescreen*), the
# pack-time impute table vs live-path twins (TestImpute*), the staged
# pipeline, the parallel figure sweeps and the fanned-out synth
# generator (*Workers*/*Determinism* tests) all match the filter.
# Allocation-budget tests are deliberately named outside it: the race
# runtime inflates AllocsPerRun.
race:
	$(GO) test -race -run 'Determinism|Concurrent|Workers|Serve|Router|Prescreen|Impute|Faults|Chaos|Hedge|Breaker' ./internal/...

# chaos runs the certification suite: seeded fault scripts (flapping,
# dead shard, uniform slowness, straggler tail, swap storms, overload)
# against the hardened router, every answer asserted byte-identical to
# the fault-free single engine or truthfully degraded. Deterministic —
# a failure replays with `go test -run Chaos ./internal/faults/`.
chaos:
	$(GO) test -run 'Faults|Chaos' -count=1 ./internal/faults/

# fuzz-smoke gives each native fuzz target a short budget on top of the
# checked-in corpus — long runs are manual (`go test -fuzz FuzzReadBundle
# -fuzztime 10m ./internal/pipeline/`).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadBundle -fuzztime 10s ./internal/pipeline/
	$(GO) test -run '^$$' -fuzz FuzzOpenBundleMapped -fuzztime 10s ./internal/pipeline/

# bench-smoke runs every serve benchmark once (-benchtime=1x) as part of
# make ci — not for numbers, but so the bench harness itself (fixtures,
# pooled buffers, the v2/v3 decode paths, the wide-shard exact vs
# two-tier prescreen pair) cannot rot between perf PRs. BenchmarkPair's
# cold (fresh views) and warm (summarized views) raw-pair benches ride
# along with -benchmem, so their allocs/op show in every ci log.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Serve' -benchtime=1x ./internal/serve/
	$(GO) test -run '^$$' -bench 'Pair' -benchtime=1x -benchmem ./internal/features/

# bench-load is the closed-loop harness's ci smoke: train a small model
# in-process, serve it over real loopback HTTP through the mmap-backed
# engine and the scatter-gather router (in-process shards), drive each
# for a short burst, and fail on any request error or a mapped/heap
# checksum mismatch. Short on purpose — it keeps the harness honest,
# the numbers come from bench-json.
bench-load:
	$(GO) run ./cmd/hydra-loadgen -persons 40 -clients 4 -duration 1s

# bench runs the parallel hot-path microbenchmarks at 1 and 4 cores so the
# worker-pool speedup (and the pinned sequential baseline) is visible.
bench:
	$(GO) test -bench='Gram|Blocking' -benchtime=1x -cpu 1,4 ./internal/kernel/ ./internal/blocking/

# bench-linalg runs the dense linear-algebra microbenchmarks behind the
# dual-training hot path (blocked Mul, parallel LU factorize/solve). Each
# benchmark carries a `naive` sub-benchmark with the pre-tiling serial
# loop, so a single run already shows the tiling delta; the -w4 variants
# only beat -w1 on multicore hardware.
LINALG_BENCH ?= Mul|Factorize|SolveMatrix
bench-linalg:
	$(GO) test -run '^$$' -bench '$(LINALG_BENCH)' -benchmem ./internal/linalg/

# bench-save / bench-compare report perf deltas mechanically: run
# `make bench-save` on the old code (writes bench-old.txt), apply the
# change, then `make bench-compare` (writes bench-new.txt and prints a
# benchstat comparison when the tool is installed, falling back to the raw
# files). BENCH_COUNT=5 gives benchstat enough samples for significance.
BENCH_COUNT ?= 5
# Redirect-then-cat (not a tee pipe) so a failing bench run fails the
# target and removes the garbage output instead of becoming a baseline.
bench-save:
	$(GO) test -run '^$$' -bench '$(LINALG_BENCH)' -count $(BENCH_COUNT) ./internal/linalg/ > bench-old.txt 2>&1 || { cat bench-old.txt; rm -f bench-old.txt; exit 1; }
	@cat bench-old.txt
bench-compare:
	$(GO) test -run '^$$' -bench '$(LINALG_BENCH)' -count $(BENCH_COUNT) ./internal/linalg/ > bench-new.txt 2>&1 || { cat bench-new.txt; rm -f bench-new.txt; exit 1; }
	@cat bench-new.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench-old.txt bench-new.txt; \
	else \
		echo "benchstat not installed; compare bench-old.txt and bench-new.txt by hand"; \
	fi

# bench-serve runs the serving-path microbenchmarks: single-pair score
# latency, top-k query latency over the sharded candidate index, and
# batched score throughput (the hydra-serve hot paths).
bench-serve:
	$(GO) test -run '^$$' -bench 'Serve' -benchmem ./internal/serve/

# bench-bundle compares the two hydra-serve startup paths: artifact+world
# (rebuilds the feature pipeline and candidate indexes from the dataset)
# vs self-contained bundle (decodes precomputed views and index shards).
# The bundle's cold start should beat the world rebuild by orders of
# magnitude — that gap is the reason the format exists.
bench-bundle:
	$(GO) test -run '^$$' -bench 'BundleColdStart' -benchmem -benchtime 1x ./internal/serve/

# bench-json is this PR's machine-readable snapshot: the out-of-RAM
# serving benchmark. It tiles a trained model to a 50k-account bundle
# on disk (~300 MB), measures cold start + RSS for the decoded and
# mapped engines in separate child processes (open / after-touch /
# after-cache-drop), asserts their top-k answers hash identically and
# the mapped cold start is ≥ 10× faster, then drives both front-ends
# with the closed-loop load harness (p50/p99/p999) and writes
# BENCH_PR9.json with the PR 8 numbers embedded as the before block.
bench-json:
	$(GO) run ./cmd/hydra-loadgen -bench-50k -dir bench50k -duration 3s -clients 4 -prev BENCH_PR8.json -json BENCH_PR9.json

# bench-chaos drives the chaos scripts against live loopback processes
# (real HTTP replicas, fault middleware at the wire): fault-free
# baseline, preferred replica hard-down (p99 must hold within 2x,
# breaker-capped probe traffic), seeded straggler tail (tied hedging),
# and overload against a bounded admission gate — every phase swept
# against the single engine, 0 wrong answers required. Writes
# BENCH_PR10.json.
bench-chaos:
	$(GO) run ./cmd/hydra-loadgen -chaos -json BENCH_PR10.json

# bench-micro is the previous per-PR snapshot tool (microbenchmarks:
# cold starts, steady-state latency + allocs/op, prescreen and impute-
# table curves), still runnable for spot checks.
bench-micro:
	$(GO) run ./cmd/hydra-servebench -prev BENCH_PR7.json -json BENCH_MICRO.json

# profile-topk captures a CPU profile of the wide-shard top-k serving
# path (the impute-dominated workload the pack-time table attacks).
# Inspect with `go tool pprof -top topk.prof` or -http=:8088.
profile-topk:
	$(GO) test -run '^$$' -bench 'ServeTopKImputeTable' -benchtime 2s \
		-cpuprofile topk.prof -o topk.test ./internal/serve/
	$(GO) tool pprof -top -nodecount 15 topk.test topk.prof

# figures regenerates every figure table (the full experiment suite).
figures:
	$(GO) run ./cmd/hydra-bench

# world-50k streams a 50 000-account (25k persons × 2 platforms) world
# to disk without ever holding it in RAM — the hydra-gen -stream path,
# byte-identical to the in-memory encoder at any -workers setting.
world-50k:
	$(GO) run ./cmd/hydra-gen -stream -persons 25000 -o world50k.json
