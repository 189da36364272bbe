.PHONY: test race bench bench-compare bench-save campaign-smoke campaign-resume-smoke campaign-distributed-smoke campaign-cache-smoke campaign-transfer-smoke campaign-evalcache-smoke serve-smoke

test:
	go build ./... && go test ./...

# The concurrency substrate, the frame kernels that write shared arrays
# inside parallel.For, the parallel DSE engine and the campaign
# orchestrator must stay clean under the race detector. The campaign
# package replays whole (small) campaigns many times — determinism
# across workers plus the checkpoint/resume suite — so it needs more
# than the default 10-minute package timeout under the race detector.
race:
	go test -race -timeout 30m ./internal/parallel/... ./internal/tsdf/... ./internal/kfusion/... ./internal/imgproc/... ./internal/icp/... ./internal/hypermapper/... ./internal/campaign/... ./internal/seqcache/... ./internal/sharedfs/... ./internal/evalstore/... ./internal/serve/...

bench:
	go test -run '^$$' -bench . -benchmem .

# Snapshot the benchmarks, compare against the saved baseline with
# benchstat (when available) and distill the run into
# BENCH_$(BENCH_INDEX).json (the per-PR snapshot series).
BENCH_INDEX ?= 8
bench-compare:
	./scripts/bench-compare.sh $(BENCH_INDEX)

# Promote the latest benchmark snapshot to the baseline future runs are
# compared against.
bench-save:
	@test -f benchmarks/latest.txt || { echo "benchmarks/latest.txt not found; run 'make bench-compare' first"; exit 1; }
	cp benchmarks/latest.txt benchmarks/baseline.txt

# Tiny end-to-end campaign: a 4-cell grid (2 scenarios × 2 devices) at
# quick scale, with the multi-fidelity ladder on — the CI smoke test of
# the cross-scene/cross-device engine.
campaign-smoke:
	go run ./cmd/experiments -campaign -quick \
		-campaign-scenes lr_kt0,of_kt0 \
		-campaign-devices odroid-xu3,pixel-adreno530 \
		-random 6 -active 1 -batch 2 -mf-stride 2 -mf-promote 0.5

# Checkpoint/resume smoke test of the staged campaign engine: run the
# same cell-ladder campaign three ways — stopped after the Explore
# stage, rerun over the same checkpoint directory (which resumes it),
# and uninterrupted — and require
# the resumed report to be byte-identical to the uninterrupted one.
RESUME_SMOKE_DIR := .campaign-resume-smoke
RESUME_SMOKE_FLAGS := -campaign -quick \
	-campaign-scenes lr_kt0,of_kt0 \
	-campaign-devices odroid-xu3,pixel-adreno530 \
	-random 6 -active 1 -batch 2 \
	-campaign-cell-stride 2 -campaign-cell-promote 0.5
campaign-resume-smoke:
	rm -rf $(RESUME_SMOKE_DIR)
	mkdir -p $(RESUME_SMOKE_DIR)
	go run ./cmd/experiments $(RESUME_SMOKE_FLAGS) \
		-campaign-checkpoint $(RESUME_SMOKE_DIR)/store -campaign-stop-after explore
	go run ./cmd/experiments $(RESUME_SMOKE_FLAGS) \
		-campaign-checkpoint $(RESUME_SMOKE_DIR)/store \
		-o $(RESUME_SMOKE_DIR)/resumed.txt
	go run ./cmd/experiments $(RESUME_SMOKE_FLAGS) \
		-o $(RESUME_SMOKE_DIR)/fresh.txt
	diff $(RESUME_SMOKE_DIR)/fresh.txt $(RESUME_SMOKE_DIR)/resumed.txt
	rm -rf $(RESUME_SMOKE_DIR)
	@echo "campaign-resume-smoke: resumed report byte-identical to uninterrupted run"

# Crash-safety smoke test of the worker-lease protocol: two OS
# processes cooperate on one campaign through a shared checkpoint
# directory, one is SIGKILLed mid-run, and the survivor's report must be
# byte-identical to an uninterrupted single-process run.
campaign-distributed-smoke:
	./scripts/distributed-smoke.sh

# Transfer-learning smoke test: the same 4×2 campaign grid with and
# without -campaign-transfer; the transfer-off table must be
# byte-identical to the pre-transfer golden, and campaigncmp enforces
# ≥20% borrower savings at equal-or-better shared-reference
# hypervolume.
campaign-transfer-smoke:
	./scripts/transfer-smoke.sh

# Fault-tolerance smoke test of the rendered-sequence cache: two OS
# processes share a checkpoint AND the sequence cache, one is SIGKILLed
# and a cache artifact is corrupted in place mid-run; the survivor's
# report must be byte-identical to an uncached run, with no leaked temp
# files in the cache directory.
campaign-cache-smoke:
	./scripts/cache-smoke.sh

# Smoke test of the persistent evaluation store: a cold campaign run
# fills the store, a warm re-run must simulate nothing while rendering
# a byte-identical report, and a record corrupted in place must be
# silently repaired by exactly one re-simulation.
campaign-evalcache-smoke:
	./scripts/evalcache-smoke.sh

# End-to-end smoke test of the campaign service: a campaign submitted
# to cmd/dseserve over HTTP must render a report byte-identical to
# cmd/experiments, and a server SIGTERMed mid-campaign must resume the
# job after restart with zero repeated simulation (evalstore counters
# prove it).
serve-smoke:
	./scripts/serve-smoke.sh
