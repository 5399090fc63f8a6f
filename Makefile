# Check tiers. `check` is the tier-1 gate every PR must keep green;
# `check-race` additionally vets and runs the suite under the race
# detector (the parallel paths that remain, across outputs, the exact
# cover's root branches and the serving layer, are exercised with
# forced worker counts even on single-core hosts).

.PHONY: check check-race lint artifact-check fmt-check pkgdoc-check docs-check server-smoke jobs-crash-smoke bench-cover bench bench-serve bench-serve-smoke bench-delta bench-delta-smoke bench-jobs bench-jobs-smoke bench-forms bench-forms-smoke bench-overload bench-overload-smoke bench-smoke bench-module-check fuzz-smoke fuzz-delta-smoke

# Pinned linter versions, fetched on demand by `go run` (network
# required; CI runs these in the `lint` job, they are not part of the
# offline tier-1 `check`).
STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

check: fmt-check pkgdoc-check docs-check artifact-check
	go vet ./...
	go build ./...
	go test ./...

# Static analysis beyond vet, plus the known-vulnerability scan. Both
# versions are pinned so CI cannot drift under a release.
lint:
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# The serving hot path (coalescing group, sharded cache, concurrent
# batch pool) is correctness-critical under concurrency: run its
# packages under -race explicitly even if the full-suite invocation
# ever gets narrowed. Concurrent resumes from one warm snapshot borrow
# level tries from the pool that cold builds use too: run those tests
# ten times over.
check-race:
	go vet ./...
	go test -race ./internal/fcache ./internal/service
	go test -race -count=10 -run 'TestResumeConcurrent' ./internal/core
	go test -race ./...

# Per-PR working artifacts (REVIEW.md, and ISSUE.md outside a PR
# branch) must not ship: REVIEW.md is review scratch space and is
# deleted before merge. See CONTRIBUTING.md.
artifact-check:
	@if [ -f REVIEW.md ]; then \
		echo "REVIEW.md is per-PR scratch and must be deleted before merge"; exit 1; fi

# gofmt gate: fails listing the offending files (gofmt -l exits 0 even
# when files need formatting, so the failure has to be scripted).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# godoc gate: every library package needs a canonical "// Package x"
# comment, every main package a doc comment on its package clause.
pkgdoc-check:
	sh scripts/pkgdoc_check.sh

# docs gate: relative markdown links must resolve.
docs-check:
	sh scripts/check_links.sh

# End-to-end smoke of the HTTP service: cold vs cached latency (>=10x),
# batching, /statsz counters, graceful SIGTERM drain + stats flush.
server-smoke:
	sh scripts/server_smoke.sh

# Kill-and-replay gate for the async job tier: submit jobs, SIGKILL the
# server mid-drain, restart on the same journal, and assert every
# accepted job reaches a terminal state exactly once with the replay
# warming the result cache (statsz jobs_replayed > 0).
jobs-crash-smoke:
	sh scripts/jobs_crash_smoke.sh

# Covering-phase comparison (seed map-and-rescan path vs
# core.SelectCover's point-space cover, both serial); writes
# BENCH_cover.json with the host it ran on and asserts identical
# literal counts.
bench-cover:
	go test -run '^$$' -bench '^BenchmarkCover$$' -benchtime 200x .

bench:
	go test -run '^$$' -bench . -benchmem .

# sppload benchmarks (cmd/sppload; its package comment lists each
# scenario's gates). Every gate runs on every run, and any unexpected
# HTTP status fails it; -baseline adds the gates that compare against
# a checked-in report. The targets that rewrite a checked-in report
# build with -buildvcs=true so the report records the commit; the
# smokes write to /tmp and read the checked-in reports unchanged.

# Closed-loop serving benchmark: the hot path (coalescing, sharded
# cache, slot-free hits) under stampede and drifting-zipf mixes;
# replaces the current rows of BENCH_serve.json, whose speedups compare
# against the recorded pre-coalescing baseline rows.
bench-serve:
	go run -buildvcs=true ./cmd/sppload -out BENCH_serve.json

# Small fast run for CI. Throughput ratios are not asserted (shared
# runners are too noisy), but duplicate computes are load-independent:
# against the checked-in report it fails if the coalescing path
# regresses.
bench-serve-smoke:
	go run ./cmd/sppload -quick -out /tmp/bench_serve_smoke.json -baseline BENCH_serve.json

# Incremental re-minimization benchmark: a 100-edit random walk per
# run, warm delta chaining vs full cold re-submissions on identical
# edit scripts; writes BENCH_delta.json with the edit_loop_speedup
# summary. Fails unless the warm covering time beats cold.
bench-delta:
	go run -buildvcs=true ./cmd/sppload -scenario edit-loop -out BENCH_delta.json

# Quick edit-loop run; against the checked-in report it also fails if
# the covering speedup falls below a third of the recorded one.
bench-delta-smoke:
	go run ./cmd/sppload -scenario edit-loop -quick -out /tmp/bench_delta_smoke.json -baseline BENCH_delta.json

# Async job tier closed-loop benchmark: submit-to-done latency per
# priority class; merges a "jobs" section into BENCH_serve.json and
# fails on any failed job.
bench-jobs:
	go run -buildvcs=true ./cmd/sppload -scenario jobs -out BENCH_serve.json

bench-jobs-smoke:
	go run ./cmd/sppload -scenario jobs -quick -out /tmp/bench_jobs_smoke.json

# Portfolio engine benchmark (docs/forms.md): per-form cold latency and
# cost, form=auto win rates and race overhead; merges a "form_mix"
# section into BENCH_serve.json and fails if any auto race misses the
# best explicit cost (the determinism contract).
bench-forms:
	go run -buildvcs=true ./cmd/sppload -scenario form-mix -out BENCH_serve.json

bench-forms-smoke:
	go run ./cmd/sppload -scenario form-mix -quick -out /tmp/bench_forms_smoke.json

# Adaptive-admission benchmark: paired at-capacity vs 4x-overload
# rounds on a one-slot server; merges an "overload" section into
# BENCH_serve.json. It grades the QoS contract: goodput under overload
# within 10% of the at-capacity baseline (trimmed paired-round ratio),
# at least one shed, every 429 carrying Retry-After, sheds decided in
# under 10ms.
bench-overload:
	go run -buildvcs=true ./cmd/sppload -scenario overload -out BENCH_serve.json

bench-overload-smoke:
	go run ./cmd/sppload -scenario overload -quick -out /tmp/bench_overload_smoke.json

# CI smoke tiers: every benchmark once (compile + one iteration catches
# bit-rot without benchmarking anything; -short keeps the run from
# rewriting any checked-in BENCH_*.json), and short fuzz runs of the
# exact-cover round-trip property, of the allocation-free union
# against Union and the union recomputed from points, and of the
# canonicalizer against its reference copy (20s each), then of the PLA,
# Verilog and BLIF readers, the incremental cover, the form parser, the
# three EPPP builders against one another and the /v1/minimize and
# /v1/jobs request envelopes (10s each).
bench-smoke:
	go test -short -run '^$$' -bench . -benchtime 1x ./...

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzExactRoundTrip$$' -fuzztime 20s ./internal/cover
	go test -run '^$$' -fuzz '^FuzzUnionInto$$' -fuzztime 20s ./internal/pcube
	go test -run '^$$' -fuzz '^FuzzCanonicalize$$' -fuzztime 20s ./internal/fcache
	go test -run '^$$' -fuzz '^FuzzParsePLA$$' -fuzztime 10s ./internal/bfunc
	go test -run '^$$' -fuzz '^FuzzReadVerilog$$' -fuzztime 10s ./internal/sim
	go test -run '^$$' -fuzz '^FuzzReadBLIF$$' -fuzztime 10s ./internal/sim
	go test -run '^$$' -fuzz '^FuzzIncrementalCover$$' -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz '^FuzzParseForm$$' -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz '^FuzzBuildEPPP$$' -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz '^FuzzMinimizeEnvelope$$' -fuzztime 10s ./internal/service
	go test -run '^$$' -fuzz '^FuzzJobsEnvelope$$' -fuzztime 10s ./internal/service

# The repository benchmark (sppbench/) is a Go module of its own, so
# the root `go build ./...` never compiles it: vet and test it in place,
# so an API change in core/pcube/ptrie that breaks it fails CI.
bench-module-check:
	cd sppbench && go vet ./... && go test ./...

# Short fuzz of delta-vs-cold byte identity: random function + edit
# script, resumed result must match a cold warm-engine run exactly.
fuzz-delta-smoke:
	go test -run '^$$' -fuzz '^FuzzDeltaEquivalence$$' -fuzztime 20s ./internal/core
