// Package slamgo is a from-scratch Go reproduction of "Algorithmic
// Performance-Accuracy Trade-off in 3D Vision Applications" (Bodin,
// Nardi, Wagstaff, Kelly, O'Boyle — ISPASS 2018): the SLAMBench
// benchmarking methodology around a complete KinectFusion dense-SLAM
// pipeline, the HyperMapper machine-learning design-space exploration of
// its algorithmic parameters, and the mobile-device performance study.
//
// The implementation lives under internal/; see README.md for the layout,
// DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for measured-vs-paper results. The benchmarks in
// bench_test.go regenerate every figure-level experiment.
//
// # Concurrency model
//
// All parallelism flows through internal/parallel, a bounded worker pool
// over contiguous index chunks with two invariants: chunk boundaries
// depend only on the problem size (never on the worker count), and
// per-chunk partial results merge serially in ascending chunk order.
// Workers race only over which chunk they pull next, so every
// floating-point reduction — ICP normal equations, raycast step counts,
// surrogate predictions — is bit-identical whether the host has 1 core
// or 64.
//
// The DSE engine (internal/hypermapper) evaluates its Latin-hypercube
// seeding phase and each active-learning batch concurrently through a
// ParallelEvaluator, scores the candidate pool in parallel chunks, and
// fits the random-forest surrogate's trees concurrently (each tree's
// RNG is seeded by a serial pre-draw). Batches are selected first on
// the surrogate's optimistic estimates, then evaluated in parallel and
// appended in selection order. The result: a seeded Optimize run yields
// a byte-identical Result — every observation and the final Pareto
// front — for any setting of the Workers knob (OptimizerConfig.Workers
// and rf.ForestConfig.Workers; 0 means GOMAXPROCS, 1 is fully serial;
// cmd/hypermapper and cmd/experiments expose it as -workers).
//
// # Surrogate inference and the evaluation ladder
//
// Surrogate inference runs on rf.FlatForest, a structure-of-arrays
// compilation of the fitted pointer forest: contiguous
// feature/threshold/left/right/value slices (plus a packed 16-byte
// walk mirror with leaf values folded in and preorder-implicit left
// children), predicted through allocation-free PredictInto /
// PredictWithStdInto and a PredictBatch that fans rows across
// internal/parallel with the usual fixed-chunk determinism. The
// optimizer samples each round's candidate pool straight into a reused
// row-major matrix, deduplicates against the evaluated set with binary
// point keys (hypermapper.AppendKey; map probes allocate nothing), and
// scores the whole pool with one batched prediction per objective — an
// active-learning round allocates a few buffers instead of a hundred
// thousand tree-walk temporaries, and tree fitting itself grows nodes
// from a preallocated arena with in-place index partitions.
//
// Repeated measurements are cut by two opt-in layers. A
// hypermapper.MemoEvaluator content-addresses Metrics by the exact
// binary encoding of the point, so any configuration re-sampled across
// phases (active batches, random-only baselines, headline re-runs) is
// simulated once. A hypermapper.MultiFidelity batch evaluator —
// plugged into OptimizerConfig.BatchEval, built over
// slambench.Subsample by core.RunFig2 and the campaign — screens
// every batch candidate on a frame-subsampled sequence and promotes
// only the top-ranked fraction to full-fidelity runs; both rungs are
// memoized and the promotion ranking breaks ties by batch position, so
// the ladder keeps the workers-independence guarantee
// (cmd/hypermapper and cmd/experiments expose it as -mf-stride and
// -mf-promote; stride ≤ 1 leaves every run at full fidelity).
// Budget accounting is denominated in full-fidelity simulations: the
// same-budget random baseline of RunFig2 receives exactly as many full
// runs as the ladder promoted (MultiFidelity.Stats), never one per
// observation — low-fidelity screening runs are cheaper by the stride
// and must not inflate the baseline's simulation budget. The
// feasibility constraint (hypermapper.AccuracyLimit) is fidelity-aware
// for the same reason: a subsampled measurement's optimistic ATE never
// certifies a configuration. MemoEvaluator coalesces concurrent misses
// on the same key (per-key singleflight), so two workers racing on one
// configuration run a single pipeline simulation and Stats counts true
// misses only.
//
// # Campaign engine: staged, resumable, cell-promoted
//
// internal/campaign replays the whole methodology across scenarios and
// devices at once — the paper tunes per scene and per device, and the
// campaign engine makes that a single orchestrated run. A scenario
// registry enumerates scene × trajectory × resolution × noise cells
// (the living-room kt0–kt3 and office kt0–kt1 analogues, via
// core.Scale) crossed with device targets (the ODROID-XU3, the desktop
// comparator, or named picks from the phone catalogue via
// phones.ByName), in fixed scenario-major order.
//
// A campaign runs as a staged job model — Plan → Explore → Promote →
// CrossMeasure → Aggregate — where every stage consumes and emits
// serialisable per-cell artifacts. Explore runs a constrained
// Fig2-style exploration per cell (sharded over internal/parallel,
// memoized, with the intra-cell multi-fidelity ladder when
// -mf-stride is set); CrossMeasure re-measures every cell's best
// feasible and leading front members in every other cell at full
// fidelity; Aggregate picks the cross-scenario robust configuration
// with hypermapper.RobustBest — feasible in all cells first, then
// minimum worst-case per-cell rank, then rank sum — which quantifies
// the paper's "one configuration does not fit all scenes" point.
//
// With -campaign-checkpoint the artifacts persist: one checksummed
// `.ckp` file per cell per stage (campaign.Store — JSON payloads sealed
// in the sharedfs.Frame, over the internal/sharedfs compute-once
// store), named by the stage kind,
// the grid index and a content hash of the cell spec + seed + the
// options that determine the artifact's bytes, so a matching artifact
// is always safe to load: a killed campaign rerun with the same
// -campaign-checkpoint loads completed cells instead of re-simulating
// them (a changed option hashes differently and simply misses the
// stale artifact; a format change bumps the store version and orphans
// everything). Worker count is excluded from the hash — results are
// bit-identical for any Workers value — so a campaign
// interrupted under -workers 1 resumes under -workers 8, and an
// interrupted-then-resumed campaign renders a byte-identical report to
// an uninterrupted one (floats round-trip JSON exactly; resumption
// provenance goes to stderr via slambench.WriteCampaignProvenance, not
// into the report). `make campaign-resume-smoke` enforces exactly that
// in CI: run, stop after Explore, rerun over the same directory, diff
// against an uninterrupted run.
//
// The checkpoint store doubles as a coordination substrate for
// multi-process campaigns. With -campaign-worker-id, N processes (or
// machines over a shared filesystem) pointing at one
// -campaign-checkpoint directory execute a single campaign's grid
// cooperatively: a worker claims a cell by atomically creating the
// artifact's .lease sibling with its content in place (the record —
// its id and a heartbeat it renews while computing — is written to a
// temp file and hard-linked to the lease name), loads the artifact once
// more in case a peer published it between the miss and the claim,
// peers waiting on a claimed cell poll with deterministic backoff until
// the artifact appears, and a lease whose heartbeat exceeds
// -campaign-lease-ttl is reclaimed — so any worker can be SIGKILLed at
// any instant without losing the campaign. Leases are a work-distribution optimisation, never a
// correctness mechanism: artifact names are content hashes, every
// writer of a name produces identical bytes, and writes are atomic
// (temp file + rename), so a takeover racing a slow-but-alive holder
// just computes the cell twice and the last rename wins. Store I/O
// rides bounded retry-with-backoff (transient ENOSPC/EIO cost
// milliseconds, not a crash), a Load distinguishes a miss — absent,
// torn or corrupt artifact, safe to recompute — from a real I/O fault
// that must surface, and a cell whose exploration panics is
// quarantined into a persisted failed artifact (a failed row in the
// report; the campaign aggregates the survivors) instead of killing
// the run. `make campaign-distributed-smoke` enforces the end-to-end
// claim in CI: two worker processes share a store, one is SIGKILLed
// mid-run, and the survivor's report must be byte-identical to an
// uninterrupted single-process run.
//
// # Rendered-sequence cache
//
// Rendering a synthetic input sequence dominates a cell's startup, and
// a campaign grid re-renders the same sequence once per cell — in
// worker mode once per cell per process. internal/seqcache removes
// that: a content-addressed, crash-safe artifact store shared by every
// cell of a campaign and by cooperating worker processes. The key is
// core.Scale.CacheKey, a hash over every input that determines the
// rendered frames (scene, trajectory, resolution, frame count, noise
// flag, seed, a format version) — two scales render identical
// sequences exactly when their keys collide, so "look up by key" is
// the whole consistency protocol. Artifacts are a versioned binary
// encoding of the frames (raw float32 depth, raw float64 poses —
// nothing quantised, so a cached campaign's report is byte-identical
// to an uncached one) sealed in the sharedfs.Frame (embedded key,
// sha256 checksum), written atomically (temp file + rename) and
// verified on every load.
//
// Reads degrade down a strict ladder, and no rung is ever fatal to the
// campaign: an in-process memory hit, else a checksum-verified disk
// hit, else render-and-publish under the same lease protocol the cell
// store uses (one renderer per key per store; peers poll with bounded
// backoff, a dead renderer's lease is reclaimed after its TTL, a
// wedged one is abandoned after a bounded number of polls), else —
// when the cache directory is unusable, the disk is full, or a fault
// persists past the bounded retries — plain inline rendering, exactly
// what an uncached run does. Every data defect (absent, truncated,
// bit-flipped, version-mismatched or misfiled artifact) is a silent
// miss that the next render repairs in place; only real I/O faults
// ride the retry ladder, and exhausting it costs a log line and a
// degradation counter, never the run. Cache provenance (renders, disk
// hits, memory hits, degradations, evictions, and each cell's
// sequence source) rides the stderr provenance table next to the
// resume columns — the deterministic report surface never sees it.
//
// cmd/experiments exposes the cache as -campaign-seq-cache: it
// defaults to <checkpoint>/seqcache whenever -campaign-checkpoint is
// set (workers sharing a checkpoint automatically share renders),
// "off" disables it, and without a directory the cache still
// deduplicates renders in-process (cells sharing a scenario share one
// immutable in-memory sequence). -campaign-seq-cache-max-mb bounds the
// store with deterministic lexicographic eviction. Stale temp files
// and orphaned leases are swept on open. The cache, the evaluation
// store and the checkpoint store are three payload codecs over one
// sharedfs compute-once store and one artifact frame, so their framing,
// verification, load, lease, retry, fault-injection, sweep and
// eviction behaviour is one implementation.
// `make campaign-cache-smoke` enforces the end-to-end claim in CI: two
// processes share checkpoint + cache, one is SIGKILLed and one artifact
// is corrupted in place mid-run, and the survivor's report must still
// diff clean against an uncached run.
//
// -campaign-cell-stride adds cell-level multi-fidelity, the intra-cell
// ladder replayed at grid granularity: Explore first screens every
// cell on a stride-subsampled sequence, then the Promote stage scores
// each screened Pareto front's hypervolume against a shared reference
// (hypermapper.FrontHypervolumes) and re-explores only the top
// -campaign-cell-promote fraction of cells (index-tie-broken via the
// same hypermapper.PromoteTopFraction the batch ladder uses) at full
// fidelity. Unpromoted cells keep — and are reported at — screening
// fidelity (the report's fid column), while the robust aggregation
// still cross-measures every candidate at full fidelity, so the
// shipped configuration never rests on subsampled metrics.
//
// # Cross-cell transfer learning
//
// The grid's cells are correlated — the same scene on another device,
// the same device on another scene — and with -campaign-transfer the
// campaign exploits that instead of exploring every cell from scratch.
// The mechanism is a pluggable seeding/prior layer on the optimizer
// itself: OptimizerConfig.Seeder generates the random-phase
// configurations (the default LHSSeeder is golden-tested byte-identical
// to the historical inline Latin hypercube, so a nil Seeder is never a
// behaviour change) and OptimizerConfig.Prior blends cross-run
// surrogate knowledge into acquisition scores at a weight that decays
// as local evidence accumulates. Both are strictly advisory: donor
// knowledge informs where the borrower samples, it never enters the
// borrower's observation log, Pareto front or best pick, because
// metrics are workload- and device-specific. Donor observations are
// filtered through hypermapper.FullObservations — failed and
// low-fidelity measurements can never seed a prior, act as warm-start
// donors, or preload a full-fidelity memo.
//
// At campaign scale the Explore stage becomes two waves. Wave 1 runs
// the grid-diagonal anchor cells (scenario i anchors at target i mod
// nTargets) exactly as a transfer-off campaign would — same seeds, same
// artifact names — and borrowers read donor observations straight from
// those exploration artifacts. Wave 2 runs every remaining cell as a
// borrower warm-started from a fixed donor set (its same-scenario
// anchor first, then its same-device anchors): donor front winners are
// interleaved round-robin into a hypermapper.WarmStartSeeder that
// spends most of a slashed seeding budget (TransferSeeds, default 3)
// on exact donor replays and clamped neighbourhood draws, and the
// pooled donor logs fit a hypermapper.ForestPrior (per-donor min-max
// normalised, so a phone and a desktop contribute comparable
// landscapes). The freed budget funds one extra model-guided
// active-learning round when the total still clears the 20% savings
// bar against a from-scratch cell. The determinism contract survives
// intact: the wave topology, budgets and donor content are pure
// functions of the options and seed, so a transfer campaign's report is
// bit-identical for any -workers value and across cooperating
// processes, borrowers key their artifacts on the donor topology while
// anchors keep their pre-transfer names (a transfer-off campaign
// resumes a transfer-on store's anchors and vice versa), and a
// quarantined anchor degrades its borrowers to exploring from scratch
// rather than poisoning them. `make campaign-transfer-smoke` enforces
// the acceptance bar in CI: the transfer-off report diffs byte-for-byte
// against the pre-transfer golden, and cmd/campaigncmp requires every
// warm-started borrower to spend at least 20% fewer full-fidelity
// simulations at an equal-or-better shared-reference hypervolume.
//
// # Persistent evaluation store
//
// A configuration's simulated metrics are a pure function of the
// configuration, the rendered sequence, the device model and the
// sampling stride — so once any process anywhere has simulated a
// point, no process should ever simulate it again.
// internal/evalstore is that memory: a persistent, content-addressed
// result store that backs hypermapper's in-process memoisation
// (MemoEvaluator consults a ResultTier on memory miss) with a disk
// tier shared across workers, runs and campaigns. The key is a sha256
// over the canonical point encoding (hypermapper.AppendKey — ±0
// normalised, NaN rejected, prefix-free, ordinals by index) plus a
// scope prefix naming everything else that determines the result: the
// scenario's core.Scale.CacheKey, the device profile, the sampling
// stride and a format version. Records are small binaries sealed in
// the sharedfs.Frame, written atomically (temp file + rename)
// into fan-out shards; failed evaluations persist as failed records
// (the evaluator's verdict is deterministic), while low-fidelity
// results are never published and never satisfy a lookup — the stride
// in the key is the fidelity firewall.
//
// Lookups walk the same never-fatal ladder as the sequence cache:
// in-process memo hit, else checksum-verified disk hit, else
// simulate-and-publish under a per-key lease (one simulator per
// configuration per store; peers poll, dead holders are reclaimed
// after the TTL), else plain inline simulation. Data defects are
// silent misses repaired by one re-simulation and re-publish; real
// I/O faults ride the bounded sharedfs retry ladder and then degrade.
// The instrumentation hook sits under the store, so a disk hit is
// never counted — or priced — as a simulation, and the store's
// counters (simulations, disk hits, published, degradations,
// evictions) plus the memo's hit/miss totals ride the stderr
// provenance table; -campaign-cache-stats additionally embeds them,
// with the sequence-cache counters, as a "caches" object in the JSON
// report. The default report surface stays byte-identical between
// cached, uncached and any-worker-count runs.
//
// cmd/experiments exposes the store as -campaign-eval-cache: it
// defaults to <checkpoint>/evalcache whenever -campaign-checkpoint is
// set, "off" disables it, a relative path lives under the checkpoint
// directory, and -campaign-eval-cache-max-mb bounds the store with
// deterministic eviction (bounding a disabled store is a flag error,
// caught before the campaign starts). `make campaign-evalcache-smoke`
// enforces the claim end-to-end in CI: a warm re-run of a cold
// campaign must simulate nothing while rendering a byte-identical
// report, and a record corrupted in place must be silently repaired
// by exactly one re-simulation.
//
// # Campaign service
//
// cmd/dseserve is the long-running face of the engine: an HTTP
// service (internal/serve) that runs campaigns as durable jobs.
// POST /campaigns submits a JSON spec — normalized to the CLI's
// defaults and validated by the same fail-fast Options.Validate path
// before any simulation, then content-addressed (worker count
// excluded) so resubmitting a spec joins the existing job instead of
// starting a twin. GET /campaigns/{id} serves status and per-cell
// progress, GET /campaigns/{id}/events streams stage/cell transitions
// as SSE (an append-only frame log replays history to late
// subscribers, then follows live), GET /campaigns/{id}/report serves
// the table/CSV/JSON renderings of the slambench writers, POST
// /campaigns/{id}/cancel stops a job cooperatively, and
// /debug/pprof/* exposes the standard profiling surface.
//
// The shared-cache topology is the point: a bounded job pool runs
// every campaign through the same staged runner as the CLI, with all
// jobs sharing one evalstore and one seqcache under the server's data
// directory — concurrent tenants never re-simulate or re-render each
// other's work — while each job checkpoints into its own checkpoint
// directory as a cooperative worker ("dseserve"), under the same
// worker-lease protocol as the CLI. Campaign progress flows out
// through campaign.Options.OnProgress (stage and cell
// events emitted by the staged runner) and cancellation flows in
// through Options.Cancel: a closed channel stops the campaign at the
// next stage or cell boundary with ErrCanceled, after in-flight cells
// finish and checkpoint.
//
// Drain semantics distinguish a user cancel from a shutdown. Cancel
// writes a marker file into the job directory before closing the
// cancel channel, so the job lands in a permanent canceled state that
// survives restarts (resubmitting the spec revives it). SIGTERM drain
// closes the same channel without a marker: the job ends this process
// as interrupted, and the next boot re-enqueues it to resume from its
// checkpoints — `make serve-smoke` proves the restarted server's
// report is byte-identical to the CLI's with the evalstore counters
// showing no repeated simulation. The steady-state request path
// (status and report reads) is allocation-free: a frozen linear-scan
// router, per-job cached renderings refreshed only on state change,
// pooled response writers and an append-formatted access log, pinned
// at zero allocs/op by the Kernel_Serve* benchmarks under the bench
// gate.
//
// The frame kernels are allocation-free in the steady state: an
// imgproc.BufferPool (sync.Pool-backed, one pool per map size) recycles
// every per-frame depth/vertex/normal map, the bilateral filter's
// spatial Gaussian is precomputed once per (radius, sigma), and
// kfusion.Pipeline ping-pongs its raycast reference between two pooled
// map pairs. The depth/vertex/normal Into-variants of the kernels
// (BilateralFilterInto, DepthToVertexMapInto, ...) overwrite every
// destination pixel, so recycled buffers behave exactly like fresh
// allocations; RaycastInto is the exception — it writes only hit
// pixels and requires all-invalid maps, which BufferPool.Vertex/Normal
// provide by clearing masks on reuse.
package slamgo
