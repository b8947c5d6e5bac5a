#!/bin/sh
# CI gate: vet (stock passes plus the femtolint contract passes), build,
# and the full test suite under the race detector. The job runtime
# (internal/runtime) and every concurrent driver must be data-race-free;
# -race is the contract, not an option. femtolint enforces the repo's
# determinism, cancellation, and hot-path contracts (see DESIGN.md
# "Static analysis"); a violation anywhere in the tree fails CI.
set -eux
go vet ./...
go build -o "$PWD/femtolint.bin" ./cmd/femtolint
trap 'rm -f "$PWD/femtolint.bin" "$PWD/garank.bin" "$PWD/gastress.bin"' EXIT
go vet -vettool="$PWD/femtolint.bin" ./...
go build ./...
# internal/core's race suite runs close to the default 10m per-package
# timeout on a loaded machine; give the full sweep headroom.
go test -race -timeout 20m ./...
# Chaos gate: the fault-tolerance suites run again under the race
# detector with -count=2, so the chaos engine's determinism claim
# (same seed and plan -> same fault sequence and report at any worker
# count) is exercised twice against fresh goroutine interleavings, and
# the recovery paths (panic isolation, watchdog kills, quarantine,
# journal replay) hold under concurrent load.
go test -race -count=2 ./internal/fault/ ./internal/runtime/ ./internal/cluster/
# Drain gate: the allocation-budget paths - drain/resume determinism,
# admission control, Preempt-fault preemption, and the atomic container
# save a drain relies on - re-run under the race detector, so an
# allocation can end (wall clock, SIGTERM, injected preemption) at any
# instant without losing journaled work or corrupting a checkpoint.
go test -race -count=2 -run 'Drain|Preempt|Budget|Admission|Atomic|Save' ./internal/core/ ./internal/hio/
# Column gate: a campaign is scheduled as twelve propagator-column tasks
# per configuration plus a dependent contraction, each column solving on
# its own scratch-only fork of the configuration's operator pair. Forks
# solving different columns concurrently must give the sequential bits,
# uneven campaigns must match RunBatch bit for bit with the same solver
# counters, and a failed column must fail its contraction and keep the
# configuration out of the journal. Scoped to the new tests because the
# full core race sweep above already runs close to its timeout.
go test -race -count=2 -run 'Column|Fork' ./internal/core/ ./internal/dirac/ ./internal/prop/
# Observability gate: the metrics registry and span tracer must be
# race-free under concurrent instrumentation, the autotuner must perform
# exactly one search per cold key under concurrent Execute (the
# singleflight contract), and the fixed-chunk reductions must make
# solves bitwise identical at every worker count. The suites run under
# -race with -count=2 against fresh interleavings.
go test -race -count=2 ./internal/obs/
go test -race -count=2 -run 'Singleflight|SearchModelled|RepsEnabled|Observer' ./internal/autotune/
go test -race -count=2 -run 'Bitwise|ReduceChunk|Deterministic' ./internal/linalg/ ./internal/solver/
# Kernel gate: the hopping kernel's output bits are pinned by SHA-256
# hashes recorded from the original general-phase kernel, each of the
# eight direction-table entries is checked alone against the dense
# projector in both precisions, Wilson.Apply must give identical bits
# from concurrent callers, and the distributed stencil must match the
# shared-memory operator bit for bit. All under -race, -count=2.
go test -race -count=2 -run 'BitPin|HopDir|Concurrent|Distributed' ./internal/dirac/ ./internal/domain/
go test -race -run 'Obs|Timeline|Trace' ./internal/runtime/ ./internal/core/ ./internal/cluster/
# Cache gate: the content-addressed result cache must be race-free and
# deterministic - the LRU eviction order, the byte budget, the disk
# tier's corruption-is-a-miss contract and the per-key singleflight all
# re-run under -race against fresh interleavings (-count=2). The driver
# suites then prove the product contract: a warm campaign is bit-for-bit
# the cold one with zero solver iterations, concurrent campaigns on one
# store solve each configuration exactly once, and an FH campaign reuses
# cached base propagators across insertions.
go test -race -count=2 ./internal/cache/
go test -race -run 'WarmCache|ShareSolves|SequentialWarm|CacheBitForBit' ./internal/core/
go test -race -run 'FH' ./internal/workflow/
# Analysis gate: the analyzer suite itself (driver, fact plumbing,
# fixtures, the vettool handshake e2e) re-runs under the race detector
# against fresh interleavings - the unitchecker is invoked concurrently
# by cmd/go, so its own code must hold to the standard it enforces.
go test -race -count=2 ./internal/analysis/...
# Distributed gate: the wire protocol suite - framing fuzz, bitwise
# apply/solve parity, kill-at-every-iteration recovery, chaos solves,
# partition and hang detection - re-runs under the race detector against
# fresh interleavings (-count=2, -short trims the kill sweep's stride).
# Then the real thing: multi-process garank smoke runs over localhost
# TCP with pinned seeds - a clean 4-rank solve, a rank killed mid-solve
# and recovered from checkpoint, a frame-chaos run, and a partition run
# (chaos seed 2 at rate 0.3 severs a link and forces a recovery) - every
# one required to match the single-process correlator bit for bit.
go test -race -count=2 -short ./internal/wire/
go build -o "$PWD/garank.bin" ./cmd/garank
./garank.bin -ranks 4
./garank.bin -ranks 4 -kill-rank 1 -kill-xid 3
./garank.bin -ranks 4 -drop 0.01 -corrupt 0.01 -delay 0.002 -chaos-seed 7 -max-inject 200
./garank.bin -ranks 2 -partition 0.3 -chaos-seed 2 -max-inject 4
rm -f "$PWD/garank.bin"
# Scenario gate: the seeded chaos-soak sweep. The scenario package's own
# suite (generator determinism, coverage, the full six-scenario soak and
# the replay-identity contract) re-runs under the race detector against
# fresh interleavings. Then gastress sweeps the pinned seed twice: eight
# scenarios spanning all five mix families plus preemption, budget
# expiry, and network chaos, each run live (runtime pool + real physics
# episode) and simulated (cluster twin), held to the full invariant set,
# with the two sweeps required to produce byte-identical canonical
# reports. A single-index replay then proves one scenario reproduces in
# isolation, outside sweep order.
go test -race -count=2 ./internal/scenario/
go build -o "$PWD/gastress.bin" ./cmd/gastress
./gastress.bin -seed 1 -count 8 -repeat 2
./gastress.bin -seed 1 -index 3
rm -f "$PWD/gastress.bin"
# Service gate: the multi-tenant campaign server. The serve suite
# re-runs under the race detector against fresh interleavings
# (-count=2): stride fair-share order pinned exactly, quota admission
# refusals, cross-tenant warm duplicates with zero solver iterations,
# concurrent-duplicate coalescing through the cache singleflight,
# drain + restart resuming a journaled campaign bit for bit, and a
# byte-identical /metrics rendering for a fixed workload. The shared
# flag validator runs with it, then the gaserve e2e drives the real
# binary over real HTTP: three tenants, a duplicate served warm from
# the shared cache, a validation 400 and a quota 429, SIGTERM
# mid-campaign, and a second server generation resuming the journal to
# the uninterrupted run's fingerprint.
go test -race -count=2 ./internal/serve/ ./internal/validate/
go test -race -run 'EndToEnd|FlagValidation' ./cmd/gaserve/ ./cmd/gasolve/ ./cmd/garank/ ./cmd/gastress/
# The femtolint suppression budget: the tree carries 8 reviewed
# //femtolint:ignore directives (the runtime's deliberate post-drain
# Wait, the journal's best-effort Close-after-error cleanups). New code
# must satisfy the passes, not suppress them. Audit mode replaces the old
# grep: it counts real, well-formed directives in non-test files through
# the analysis itself, and additionally fails on malformed directives and
# on stale ones that no longer suppress anything.
"$PWD/femtolint.bin" -audit -budget=8 ./...
