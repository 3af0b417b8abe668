//! Simulation driver: stream a workload through a hierarchy structure once,
//! then cost any number of designs analytically.
//!
//! Cache statistics depend only on the address stream and the cache
//! geometry — never on latency or energy parameters — so one simulation of
//! a [`Structure`] serves every technology assignment that shares it. The
//! paper's whole grid (9 N-configs × 3 NVMs, 8 EH-configs × 2 LLCs × 3
//! NVMs, NDM × 3 NVMs, heat maps) reduces to 18 simulations per workload.
//!
//! Every simulation goes through [`walk`], over a live workload or a
//! recorded trace ([`Source`]), full-fidelity on either engine or
//! interval-sampled, as one [`RunOpts`] value chooses.

use crate::design::{Design, Structure, MEM_NAME};
use crate::journal::SweepCtx;
use crate::model::Metrics;
use crate::partition::{self, Placement};
use crate::sampling::{self, SampleMode};
use crate::scale::Scale;
use memsim_cache::{
    Cache, CacheConfig, Fanout, Hierarchy, HierarchyProbes, LevelProbes, LevelStats,
    ShardedHierarchy,
};
use memsim_memory::{PartitionedMemory, RegionTraffic};
use memsim_tech::Technology;
use memsim_trace::{Region, TraceSink};
use memsim_tracefile::{replay_into, TraceError, TraceReader};
use memsim_workloads::WorkloadKind;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// The raw output of one workload × structure simulation.
#[derive(Debug, Clone)]
pub struct RawRun {
    /// Per-cache statistics, top-down (`L1`, `L2`, `L3`[, `L4`]).
    pub caches: Vec<LevelStats>,
    /// Aggregate terminal-memory statistics (name `MEM`).
    pub mem: LevelStats,
    /// Terminal traffic attributed to each workload region.
    pub per_region: Vec<RegionTraffic>,
    /// Region names, aligned with `per_region`.
    pub region_names: Vec<String>,
    /// Region sizes in bytes, aligned with `per_region`.
    pub region_sizes: Vec<u64>,
    /// Region start addresses, aligned with `per_region`.
    pub region_starts: Vec<u64>,
    /// Total demand references issued by the workload.
    pub total_refs: u64,
    /// Workload footprint in bytes.
    pub footprint_bytes: u64,
    /// Set when the counters were *extrapolated* from an
    /// interval-sampled run rather than measured over the whole stream;
    /// carries what confidence-interval derivation needs.
    pub sample: Option<crate::sampling::SampleDetail>,
}

impl RawRun {
    /// Stats/cost alignment helper: caches followed by the terminal memory.
    pub fn all_levels(&self) -> Vec<&LevelStats> {
        self.caches
            .iter()
            .chain(std::iter::once(&self.mem))
            .collect()
    }
}

/// Which engine walks the reference stream through the hierarchy.
///
/// Both engines produce bit-identical [`LevelStats`] (asserted by the
/// parity tests), so the choice affects throughput only — which is why
/// [`SimCache`] does not key on it and the sweep journal accepts resumed
/// points across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The single-threaded [`Hierarchy`] walk.
    #[default]
    Sequential,
    /// The set-sharded parallel engine with this many requested worker
    /// shards (at least 1; capped at the structure's address-class count).
    Sharded(usize),
}

impl Engine {
    /// Auto-detect: shard across the available cores, or stay sequential
    /// on a single-core host where fan-out only adds queue overhead.
    pub fn auto() -> Self {
        match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => Engine::Sharded(n.get()),
            _ => Engine::Sequential,
        }
    }

    /// Parse the `--shards` grammar shared by the CLI and the server's
    /// job spec: "auto" picks for this host, "seq" forces the sequential
    /// engine, N >= 1 requests that many set shards. Zero is rejected (a
    /// zero-worker engine cannot make progress).
    pub fn parse(spec: &str) -> Result<Engine, String> {
        match spec {
            "auto" => Ok(Engine::auto()),
            "seq" => Ok(Engine::Sequential),
            n => match n.parse::<usize>() {
                Ok(0) => Err("--shards must be at least 1 (or 'auto'/'seq')".into()),
                Ok(n) => Ok(Engine::Sharded(n)),
                Err(_) => Err(format!("bad shard count '{n}' (want N, 'auto', or 'seq')")),
            },
        }
    }

    /// The shard count recorded in sweep journals: 0 for the sequential
    /// engine, the requested worker count otherwise.
    pub fn journal_shards(&self) -> u64 {
        match self {
            Engine::Sequential => 0,
            Engine::Sharded(n) => *n as u64,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Sequential => write!(f, "seq"),
            Engine::Sharded(n) => write!(f, "sharded({n})"),
        }
    }
}

/// How a simulation runs: the engine for full-fidelity walks and the
/// sampling mode. Every job that simulates (a walk, a design point, a
/// grid, a heat map, a journaled sweep) takes one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunOpts {
    /// Which engine walks a full-fidelity stream (results are
    /// engine-independent; this is a throughput choice).
    pub engine: Engine,
    /// `Off` walks every event; `On` simulates one representative
    /// interval per cluster and extrapolates (results carry confidence
    /// intervals). The sampled walk is always the sequential fused walk
    /// (one pass over the plan's windows for every structure of the
    /// call), so `engine` does not apply to it.
    pub sample: SampleMode,
}

/// Where a [`walk`]'s reference stream comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// Run the workload (at `scale.class`) with the hierarchy as its sink.
    Live(WorkloadKind),
    /// Stream a recorded trace file; the terminal's region table comes
    /// from its header, so per-region traffic matches the live run.
    Trace(&'a Path),
}

/// The levels every structure shares: L1, L2 and L3 at `scale`.
fn shared_levels(scale: &Scale) -> Vec<Cache> {
    [
        ("L1", scale.l1_bytes, scale.l1_ways),
        ("L2", scale.l2_bytes, scale.l2_ways),
        ("L3", scale.l3_bytes, scale.l3_ways),
    ]
    .into_iter()
    .map(|(name, bytes, ways)| Cache::new(CacheConfig::new(name, bytes, scale.line_bytes, ways)))
    .collect()
}

/// The levels `structure` adds below L3: none for
/// [`Structure::ThreeLevel`], the sectored page cache for
/// [`Structure::WithL4`].
fn tail_levels(scale: &Scale, structure: &Structure) -> Vec<Cache> {
    let Structure::WithL4 {
        capacity_bytes,
        page_bytes,
    } = structure
    else {
        return Vec::new();
    };
    let mut ways = scale.l4_ways;
    // keep the set count a power of two for small scaled capacities
    while ways > 1
        && !(capacity_bytes / (u64::from(*page_bytes) * u64::from(ways))).is_power_of_two()
    {
        ways /= 2;
    }
    let cap = capacity_bytes - capacity_bytes % (u64::from(*page_bytes) * u64::from(ways));
    let mut cfg = CacheConfig::new(
        "L4",
        cap.max(u64::from(*page_bytes) * u64::from(ways)),
        *page_bytes,
        ways,
    );
    // pages write back at line granularity: the paper's simulator
    // tracks dirty cache *lines*, and those are what reach memory
    if *page_bytes > scale.line_bytes {
        cfg = cfg.with_sectors(scale.line_bytes);
    }
    vec![Cache::new(cfg)]
}

/// The terminal below every structure: it collects per-region traffic,
/// and its aggregate equals a flat memory's counters because everything
/// is placed on the DRAM side.
fn terminal(regions: &[Region]) -> PartitionedMemory {
    PartitionedMemory::new(regions, Technology::Pcm)
}

/// What [`fused_hierarchy`] builds.
pub(crate) type Fused = Hierarchy<Fanout<Hierarchy<PartitionedMemory>>>;

/// The hierarchy every sequential walk runs: the shared L1–L3 at `scale`
/// over a [`Fanout`] of one tail per structure (its levels below L3 over
/// its own terminal attributing traffic to `regions`), in order. Draining
/// it drains the top and then each tail, which issues every tail the
/// requests its stacked hierarchy would see, in the same order, so each
/// tail's counters are bit-identical to a walk of that structure alone.
pub(crate) fn fused_hierarchy(
    scale: &Scale,
    structures: &[Structure],
    regions: &[Region],
) -> Fused {
    let tails = structures
        .iter()
        .map(|s| Hierarchy::new(tail_levels(scale, s), terminal(regions)))
        .collect();
    Hierarchy::new(shared_levels(scale), Fanout(tails))
}

/// Publish one level's final statistics into the global observability
/// registry as `{prefix}.{level}.{field}` counters. For cache levels this
/// overwrites the epoch-published values with the identical finals; for
/// the terminal memory it is the only publication. The export's per-level
/// counters are therefore bit-identical to the [`LevelStats`] in the
/// final report.
fn publish_final_stats(prefix: &str, stats: &LevelStats) {
    let reg = memsim_obs::global();
    let store = |field: &str, v: u64| {
        reg.counter(&format!("{prefix}.{}.{field}", stats.name))
            .store(v);
    };
    store("loads", stats.loads);
    store("stores", stats.stores);
    store("load_hits", stats.load_hits);
    store("load_misses", stats.load_misses);
    store("store_hits", stats.store_hits);
    store("store_misses", stats.store_misses);
    store("writebacks_out", stats.writebacks_out);
    store("fills", stats.fills);
    store("bytes_loaded", stats.bytes_loaded);
    store("bytes_stored", stats.bytes_stored);
}

/// How a full walk reports itself to the observability layer.
struct WalkObs<'a> {
    /// One counter prefix per structure (`sim.<wl>.<label>` or
    /// `replay.<label>`); empty when observability is off.
    prefixes: &'a [String],
    /// Replay-grid group index: the sequential walk also counts its
    /// events into `progress.shard<i>.events`.
    shard: Option<usize>,
    /// Wrap the drain in a `drain` span (live walks report phases).
    drain_span: bool,
}

/// Walk `source` through the hierarchy of every structure in `structures`
/// at `scale` under `opts` and harvest one [`RawRun`] per structure, in
/// order. This is the expensive step: every reference (or, sampled, every
/// reference of the representative windows) walks the hierarchy.
///
/// The sequential full-fidelity walk and the sampled walk serve the whole
/// slice from one pass over the source: the stream (or the plan's
/// representative windows of it) is generated or decoded once and walks
/// the shared L1–L3 once, and L3's traffic fans out to each structure's
/// tail (its L4, if any, over its own terminal). A lone structure is the
/// one-element case. Only the sharded engine takes one structure per
/// pass. Every engine and grouping yields bit-identical [`RawRun`]
/// counters; the sharded engine trades the sequential path's
/// per-epoch probe publication for per-shard progress telemetry, with the
/// identical finals published at the end either way.
///
/// `shard` attributes a trace walk to a replay-grid group: it names the
/// span (`replay.shard<i>`) and the progress counter
/// (`progress.shard<i>.events`), so the sampler can show per-group lag.
///
/// `Err` carries a trace decode error or a sampling set-up failure
/// (unrecordable workload, unbuildable plan); one error fails every
/// structure of the pass. A live workload that fails its
/// self-verification panics; grid workers catch both into
/// [`FailedPoint`]s.
pub fn walk(
    source: Source<'_>,
    scale: &Scale,
    structures: &[Structure],
    opts: &RunOpts,
    shard: Option<usize>,
) -> Result<Vec<RawRun>, String> {
    if let SampleMode::On(spec) = opts.sample {
        // The stream is recorded once per machine, the interval plan is
        // memoized per (trace, spec), and only the representative
        // windows are walked — see `crate::sampling`.
        let (path, live) = match source {
            Source::Live(kind) => (sampling::cached_trace(kind, scale.class)?, true),
            Source::Trace(path) => (path.to_path_buf(), false),
        };
        let plan = sampling::plan_for(&path, spec)?;
        return sampling::walk_windows(&path, scale, structures, &plan).map_err(|e| {
            if live {
                format!("sampled replay of {}: {e}", path.display())
            } else {
                e.to_string()
            }
        });
    }
    if let (Engine::Sharded(_), [_, _, ..]) = (opts.engine, structures) {
        // the sharded engine splits one hierarchy's sets across workers,
        // so each structure takes its own pass
        return structures
            .iter()
            .map(|s| Ok(walk(source, scale, std::slice::from_ref(s), opts, shard)?.remove(0)))
            .collect();
    }
    let labels: Vec<String> = structures.iter().map(Structure::obs_label).collect();
    let prefixes = |scope: &str| -> Vec<String> {
        if memsim_obs::enabled() {
            labels.iter().map(|l| format!("{scope}.{l}")).collect()
        } else {
            Vec::new()
        }
    };
    let (mut span, prefixes, runs) = match source {
        Source::Live(kind) => {
            let prefixes = prefixes(&format!("sim.{}", kind.name()));
            let span = memsim_obs::span!("sim.{}.{}", kind.name(), labels.join("+"));
            let mut workload = {
                let _s = memsim_obs::span!("generate");
                kind.build(scale.class)
            };
            let regions = workload.space().regions().to_vec();
            let obs = WalkObs {
                prefixes: &prefixes,
                shard: None,
                drain_span: true,
            };
            let runs = walk_hierarchy(scale, structures, &regions, opts.engine, &obs, |sink| {
                let _s = memsim_obs::span!("simulate");
                workload.run(sink);
                Ok(())
            })
            .map_err(|e| e.to_string())?;
            {
                let _s = memsim_obs::span!("verify");
                workload.verify().unwrap_or_else(|e| {
                    panic!("{} failed self-verification: {e}", workload.name())
                });
            }
            (span, prefixes, runs)
        }
        Source::Trace(path) => {
            let span = match shard {
                Some(i) => memsim_obs::span!("replay.shard{}", i),
                None => memsim_obs::span!("replay.walk"),
            };
            let prefixes = prefixes("replay");
            let mut reader = TraceReader::open(path).map_err(|e| e.to_string())?;
            let regions = reader.header().regions.clone();
            let obs = WalkObs {
                prefixes: &prefixes,
                shard,
                drain_span: false,
            };
            let runs = walk_hierarchy(scale, structures, &regions, opts.engine, &obs, |sink| {
                replay_into(&mut reader, sink).map(drop)
            })
            .map_err(|e| e.to_string())?;
            // Trace-health counters from the one reader, under every
            // structure it served: every chunk that reached the sink
            // passed its CRC check.
            let reg = memsim_obs::global();
            for prefix in &prefixes {
                let store = |field: &str, v: u64| {
                    reg.counter(&format!("{prefix}.reader.{field}")).store(v);
                };
                store("chunks", reader.chunks_read());
                store("crc_verified_chunks", reader.crc_verified_chunks());
                store("payload_bytes", reader.payload_bytes());
            }
            (span, prefixes, runs)
        }
    };
    span.add_events(runs.first().map_or(0, |r| r.total_refs));
    if memsim_obs::enabled() {
        for (prefix, run) in prefixes.iter().zip(&runs) {
            for stats in run.all_levels() {
                publish_final_stats(prefix, stats);
            }
        }
    }
    Ok(runs)
}

/// The one place a full walk assembles its hierarchy and picks its
/// engine: `feed` delivers the stream to the sink in chunks, then the
/// hierarchy is drained and harvested into one [`RawRun`] per structure
/// (unpublished). The sharded engine takes exactly one structure.
///
/// The sequential hierarchy is [`fused_hierarchy`], so each run is
/// bit-identical to a walk of that structure alone.
fn walk_hierarchy(
    scale: &Scale,
    structures: &[Structure],
    regions: &[Region],
    engine: Engine,
    obs: &WalkObs<'_>,
    feed: impl FnOnce(&mut dyn TraceSink) -> Result<(), TraceError>,
) -> Result<Vec<RawRun>, TraceError> {
    if let Engine::Sharded(shards) = engine {
        let [structure] = structures else {
            panic!("the sharded engine walks one structure per pass");
        };
        // one structure's whole stack, its sets split across the workers
        let mut caches = shared_levels(scale);
        caches.extend(tail_levels(scale, structure));
        let prefix = obs.prefixes.first().map(String::as_str);
        let mut sharded = ShardedHierarchy::new(caches, terminal(regions), shards, prefix);
        feed(&mut sharded)?;
        let run = {
            let _s = obs.drain_span.then(|| memsim_obs::span!("drain"));
            sharded.finish()
        };
        return Ok(vec![raw_run(
            run.levels,
            run.memory,
            regions,
            run.total_refs,
        )]);
    }
    let mut hierarchy = fused_hierarchy(scale, structures, regions);
    let reg = memsim_obs::global();
    if let Some((first, rest)) = obs.prefixes.split_first() {
        let names: Vec<&str> = hierarchy
            .levels()
            .iter()
            .map(|c| c.config().name.as_str())
            .collect();
        let mut probes = HierarchyProbes::register(reg, first, &names);
        for prefix in rest {
            probes.add_prefix(reg, prefix, &names);
        }
        if let Some(i) = obs.shard {
            probes.add_events_counter(reg.counter(&format!("progress.shard{i}.events")));
        }
        hierarchy.set_probes(probes);
    }
    feed(&mut hierarchy)?;
    {
        let _s = obs.drain_span.then(|| memsim_obs::span!("drain"));
        hierarchy.drain();
    }
    hierarchy.assert_consistent();
    let total_refs = hierarchy.total_refs();
    let shared: Vec<LevelStats> = hierarchy.levels().iter().map(|c| c.stats()).collect();
    let Fanout(tails) = hierarchy.into_memory();
    let runs = tails
        .into_iter()
        .enumerate()
        .map(|(i, tail)| {
            tail.assert_consistent();
            if let Some(prefix) = obs.prefixes.get(i) {
                // the tail's levels publish once, at the end (their
                // 10 LevelStats fields are republished with the finals)
                for cache in tail.levels() {
                    LevelProbes::register(reg, &format!("{prefix}.{}", cache.config().name))
                        .publish(&cache.counter_values());
                }
            }
            let mut caches = shared.clone();
            caches.extend(tail.levels().iter().map(|c| c.stats()));
            raw_run(caches, tail.into_memory(), regions, total_refs)
        })
        .collect();
    Ok(runs)
}

/// Assemble a [`RawRun`] from a drained hierarchy's pieces — the common
/// tail of both engines, so both report identically.
fn raw_run(
    cache_stats: Vec<LevelStats>,
    mem_part: PartitionedMemory,
    regions: &[Region],
    total_refs: u64,
) -> RawRun {
    let mut mem = mem_part.dram_stats().clone();
    mem.name = MEM_NAME.to_string();
    RawRun {
        caches: cache_stats,
        mem,
        per_region: mem_part.traffic().to_vec(),
        region_names: regions.iter().map(|r| r.name.clone()).collect(),
        region_sizes: regions.iter().map(|r| r.len).collect(),
        region_starts: regions.iter().map(|r| r.start).collect(),
        total_refs,
        footprint_bytes: regions.iter().map(|r| r.len).sum(),
        sample: None,
    }
}

/// A concurrency-safe memo of structure simulations.
///
/// Each key owns a `OnceLock` cell created under the map lock, so concurrent
/// workers requesting the same key race only for the cell; `get_or_init` then
/// runs the simulation exactly once while later arrivals block on the cell
/// instead of re-simulating. Distinct keys still simulate in parallel because
/// the map lock is never held across a simulation.
#[derive(Default)]
pub struct SimCache {
    #[allow(clippy::type_complexity)]
    map: Mutex<HashMap<(WorkloadKind, Scale, Structure, SampleMode), Arc<OnceLock<Arc<RawRun>>>>>,
}

impl SimCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch or walk `kind` live through `structure` under `opts`. The
    /// memo key deliberately excludes the engine — both engines produce
    /// bit-identical runs, so whichever requester arrives first fills
    /// the cell for everyone — but it *includes* the sampling mode,
    /// because a sampled run's extrapolated counters are not the full
    /// run's counters and must never be served in its place.
    ///
    /// When observability is on, every call lands in exactly one of the
    /// `sim.memo.hits` / `sim.memo.misses` counters: concurrent requesters
    /// blocked on the same in-flight cell count as hits, because the
    /// overlap was simulated once — the property the server's job
    /// coalescing asserts.
    ///
    /// Panics when the walk fails (see [`walk`]).
    pub fn get(
        &self,
        kind: WorkloadKind,
        scale: &Scale,
        structure: &Structure,
        opts: &RunOpts,
    ) -> Arc<RawRun> {
        let key = (kind, *scale, *structure, opts.sample);
        let cell = {
            let mut map = self.map.lock().expect("sim cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        let mut simulated = false;
        let run = Arc::clone(cell.get_or_init(|| {
            simulated = true;
            let runs = walk(Source::Live(kind), scale, &[*structure], opts, None);
            Arc::new(runs.unwrap_or_else(|e| panic!("{e}")).remove(0))
        }));
        if memsim_obs::enabled() {
            let field = if simulated { "misses" } else { "hits" };
            memsim_obs::global()
                .counter(&format!("sim.memo.{field}"))
                .inc();
        }
        run
    }

    /// Number of memoized runs (including any still simulating).
    pub fn len(&self) -> usize {
        self.map.lock().expect("sim cache poisoned").len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One evaluated (workload, design) point.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The design evaluated.
    pub design: Design,
    /// The workload it ran.
    pub workload: WorkloadKind,
    /// Modeled metrics (Eq. 1–4).
    pub metrics: Metrics,
    /// The underlying simulation.
    pub run: Arc<RawRun>,
    /// NDM only: the oracle's chosen region placement.
    pub placement: Option<Vec<Placement>>,
    /// Sampled runs only: per-metric relative confidence-interval
    /// halfwidths of `metrics` (absent for NDM, whose per-placement
    /// costing has no single cost vector to spread the clusters over).
    pub sample_ci: Option<crate::sampling::SampleCi>,
}

/// Cost a design analytically against an already-simulated (or replayed)
/// run of its structure. This is the cheap step: no reference walks, only
/// the Eq. 1–4 models (and, for NDM, the oracle partitioner).
pub fn evaluate_run(
    kind: WorkloadKind,
    scale: &Scale,
    design: &Design,
    run: Arc<RawRun>,
) -> EvalResult {
    match design {
        Design::Ndm { nvm } => {
            let choice = partition::oracle(&run, *nvm, scale);
            EvalResult {
                design: *design,
                workload: kind,
                metrics: choice.metrics,
                run,
                placement: Some(choice.placement),
                sample_ci: None,
            }
        }
        _ => {
            let costs = design.costing(scale, &run);
            let stats = run.all_levels();
            let pairs: Vec<_> = stats.into_iter().zip(costs.iter()).collect();
            let metrics = Metrics::compute(&pairs, run.total_refs);
            let sample_ci = crate::sampling::sample_ci(&run, &costs);
            EvalResult {
                design: *design,
                workload: kind,
                metrics,
                run,
                placement: None,
                sample_ci,
            }
        }
    }
}

/// Evaluate one design point under `opts`, memoizing the structure's
/// live walk in `cache`.
pub fn evaluate(
    kind: WorkloadKind,
    scale: &Scale,
    design: &Design,
    cache: &SimCache,
    opts: &RunOpts,
) -> EvalResult {
    design.validate().expect("invalid design");
    let run = cache.get(kind, scale, &design.structure(scale), opts);
    evaluate_run(kind, scale, design, run)
}

/// Identity and cause of a grid point that did not produce a result.
#[derive(Debug, Clone)]
pub struct FailedPoint {
    /// The workload of the failed point.
    pub workload: WorkloadKind,
    /// The design of the failed point.
    pub design: Design,
    /// The panic payload (or shard error) that killed it.
    pub message: String,
}

impl std::fmt::Display for FailedPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} × {}: {}",
            self.workload.name(),
            self.design.label(),
            self.message
        )
    }
}

/// Why a sweep-level entry point (a table/figure builder) could not
/// produce its artifact.
#[derive(Debug)]
pub enum SweepError {
    /// An armed interrupt flag stopped the run before every point
    /// completed; the journal holds everything that finished.
    Interrupted,
    /// One or more points panicked. Every other point completed (and was
    /// journaled, when journaling was on).
    Failed(Vec<FailedPoint>),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Interrupted => write!(f, "sweep interrupted"),
            SweepError::Failed(points) => {
                write!(f, "{} sweep point(s) failed:", points.len())?;
                for p in points {
                    write!(f, "\n  {p}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Everything a fault-isolated grid run produced: per-point results
/// (aligned with the input points, `None` where the point failed or was
/// never claimed before an interrupt), the failures, and how the run ended.
#[derive(Debug)]
pub struct GridOutcome {
    /// One slot per input point, in input order.
    pub results: Vec<Option<EvalResult>>,
    /// Points that panicked, with their payloads.
    pub failures: Vec<FailedPoint>,
    /// Points served from the sweep journal instead of simulation.
    pub skipped: usize,
    /// True when an armed interrupt flag stopped the run before every
    /// point was claimed.
    pub interrupted: bool,
}

impl GridOutcome {
    /// The completed results in input order, dropping failed/unclaimed
    /// slots.
    pub fn completed(self) -> Vec<EvalResult> {
        self.results.into_iter().flatten().collect()
    }

    /// Every result in input order, or why the grid is incomplete: an
    /// interrupt wins over failures (the journal already holds both kinds
    /// of entry).
    pub(crate) fn result(self) -> Result<Vec<EvalResult>, SweepError> {
        if self.interrupted {
            return Err(SweepError::Interrupted);
        }
        if !self.failures.is_empty() {
            return Err(SweepError::Failed(self.failures));
        }
        Ok(self
            .results
            .into_iter()
            .map(|slot| slot.expect("missing result"))
            .collect())
    }

    /// Every result in input order, panicking if any point failed — for
    /// callers (tests, benches, examples) that treat a failed point as a
    /// bug.
    pub fn strict(self) -> Vec<EvalResult> {
        self.result().unwrap_or_else(|e| match e {
            SweepError::Failed(failures) => {
                let list: Vec<String> = failures.iter().map(FailedPoint::to_string).collect();
                panic!(
                    "{} grid point(s) failed: {}",
                    failures.len(),
                    list.join("; ")
                )
            }
            SweepError::Interrupted => panic!("{e}"),
        })
    }
}

/// Turn a caught panic payload into a displayable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, turning a panic into its payload message — the fault
/// isolation every grid worker wraps its unit of work in.
pub(crate) fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

/// How many workers a grid of `n` units runs on: `threads`, defaulting
/// to the available parallelism, at least 1 and never more than `n`.
pub(crate) fn worker_count(threads: Option<usize>, n: usize) -> usize {
    threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, n.max(1))
}

/// Claim the indices `0..n` across `threads` scoped workers (default:
/// the available parallelism; never more than `n`) and collect `job(i)`
/// into one slot per index, in index order. Workers claim disjoint
/// indices from a shared counter, so publishing a result is a lock-free
/// single-writer `OnceLock::set`. They are named `{lane}{w}` so each gets
/// a stable flight-recorder lane in `--trace-out` timelines, and stop
/// claiming once `stop()` holds: a slot left `None` was never claimed.
///
/// `job` must not unwind — wrap its work in [`catch_panic`]: a panic
/// crossing `thread::scope` would re-raise on join and drop every
/// completed slot with it.
pub(crate) fn parallel_slots<T: Send + Sync>(
    lane: &str,
    n: usize,
    threads: Option<usize>,
    stop: impl Fn() -> bool + Sync,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<Option<T>> {
    let threads = worker_count(threads, n);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for w in 0..threads {
            let worker = || loop {
                if stop() {
                    break;
                }
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                assert!(slots[i].set(job(i)).is_ok(), "slot {i} written twice");
            };
            std::thread::Builder::new()
                .name(format!("{lane}{w}"))
                .spawn_scoped(s, worker)
                .expect("spawn worker");
        }
    });
    slots.into_iter().map(OnceLock::into_inner).collect()
}

/// Fault-isolated evaluation of one sweep point: a point already in the
/// sweep's resume map is served from it (no simulation); a freshly
/// evaluated point is journaled before being returned. A panic is caught,
/// recorded in the journal and returned as a [`FailedPoint`].
pub(crate) fn sweep_point(
    kind: WorkloadKind,
    scale: &Scale,
    design: &Design,
    cache: &SimCache,
    sweep: Option<&SweepCtx>,
    opts: &RunOpts,
) -> Result<EvalResult, FailedPoint> {
    catch_panic(|| {
        if let Some(hit) = sweep.and_then(|ctx| ctx.lookup(kind, design)) {
            return hit;
        }
        let r = evaluate(kind, scale, design, cache, opts);
        if let Some(ctx) = sweep {
            ctx.record(&r);
        }
        r
    })
    .map_err(|message| {
        if let Some(ctx) = sweep {
            ctx.record_failure(kind, design, &message);
        }
        FailedPoint {
            workload: kind,
            design: *design,
            message,
        }
    })
}

/// Evaluate a grid of points in parallel over `threads` workers (defaults
/// to the available parallelism when `None`), sharing one simulation memo.
///
/// Fault-isolated: a panicking point is caught in its worker, recorded as
/// a [`FailedPoint`] (and journaled, when a sweep context is given), and
/// the remaining points still run to completion. With a sweep context,
/// journaled points are skipped and fresh completions are appended as they
/// land; an armed interrupt flag makes workers stop claiming new points
/// while in-flight ones finish and journal. [`GridOutcome::strict`] turns
/// any failure into a panic.
pub fn evaluate_grid(
    points: &[(WorkloadKind, Design)],
    scale: &Scale,
    cache: &SimCache,
    threads: Option<usize>,
    sweep: Option<&SweepCtx>,
    opts: &RunOpts,
) -> GridOutcome {
    let _span = memsim_obs::span!("grid");
    let slots = parallel_slots(
        "memsim-sweep",
        points.len(),
        threads,
        || sweep.is_some_and(SweepCtx::interrupted),
        |i| {
            let (kind, design) = points[i];
            // One recorder span per sweep point so the timeline shows
            // which worker ran which (workload, design) pair, when.
            let _point_span = memsim_obs::span!("grid.point.{}.{}", kind.name(), design.label());
            sweep_point(kind, scale, &design, cache, sweep, opts)
        },
    );
    let mut results = Vec::with_capacity(points.len());
    let mut failures = Vec::new();
    let mut unclaimed = 0usize;
    let mut skipped = 0usize;
    for slot in slots {
        match slot {
            None => {
                unclaimed += 1;
                results.push(None);
            }
            Some(Ok(r)) => {
                if sweep.is_some_and(|ctx| ctx.was_skipped(r.workload, &r.design)) {
                    skipped += 1;
                }
                results.push(Some(r));
            }
            Some(Err(failed)) => {
                failures.push(failed);
                results.push(None);
            }
        }
    }
    let cis: Vec<crate::sampling::SampleCi> = results
        .iter()
        .flatten()
        .filter_map(|r| r.sample_ci)
        .collect();
    crate::sampling::publish_ci_summary(&cis);
    GridOutcome {
        results,
        failures,
        skipped,
        interrupted: unclaimed > 0 && sweep.is_some_and(|ctx| ctx.interrupted()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{eh_configs, n_configs};

    fn scale() -> Scale {
        Scale::mini()
    }

    #[test]
    fn baseline_run_is_consistent() {
        let run = walk(
            Source::Live(WorkloadKind::Cg),
            &scale(),
            &[Structure::ThreeLevel],
            &RunOpts::default(),
            None,
        )
        .unwrap()
        .remove(0);
        assert_eq!(run.caches.len(), 3);
        assert!(run.total_refs > 100_000);
        // L1 sees every demand reference (after line splitting)
        assert_eq!(run.caches[0].accesses(), run.total_refs);
        // memory loads equal L3 load misses (store misses bypass on writeback)
        assert_eq!(run.mem.loads, run.caches[2].load_misses);
        // per-region traffic sums to the aggregate
        let sum_loads: u64 = run.per_region.iter().map(|t| t.loads).sum();
        assert_eq!(sum_loads, run.mem.loads);
        let sum_stores: u64 = run.per_region.iter().map(|t| t.stores).sum();
        assert_eq!(sum_stores, run.mem.stores);
    }

    #[test]
    fn l4_structure_adds_level_and_filters() {
        let st = Structure::WithL4 {
            capacity_bytes: 1 << 20,
            page_bytes: 1024,
        };
        let run = walk(
            Source::Live(WorkloadKind::Cg),
            &scale(),
            &[st],
            &RunOpts::default(),
            None,
        )
        .unwrap()
        .remove(0);
        assert_eq!(run.caches.len(), 4);
        assert_eq!(run.caches[3].name, "L4");
        // the L4 must filter some traffic: memory loads < L3 load misses
        assert!(run.mem.loads < run.caches[2].load_misses);
        // with 1 KiB pages, memory fills move 1 KiB each
        assert_eq!(run.mem.bytes_loaded, run.mem.loads * 1024);
    }

    #[test]
    fn sharded_engine_matches_sequential_golden() {
        for st in [
            Structure::ThreeLevel,
            Structure::WithL4 {
                capacity_bytes: 1 << 20,
                page_bytes: 1024,
            },
        ] {
            let seq = walk(
                Source::Live(WorkloadKind::Cg),
                &scale(),
                &[st],
                &RunOpts::default(),
                None,
            )
            .unwrap()
            .remove(0);
            for shards in [2usize, 7] {
                let opts = RunOpts {
                    engine: Engine::Sharded(shards),
                    ..RunOpts::default()
                };
                let sh = walk(Source::Live(WorkloadKind::Cg), &scale(), &[st], &opts, None)
                    .unwrap()
                    .remove(0);
                assert_eq!(sh.caches, seq.caches, "{st:?} shards={shards}");
                assert_eq!(sh.mem, seq.mem, "{st:?} shards={shards}");
                assert_eq!(sh.per_region, seq.per_region, "{st:?} shards={shards}");
                assert_eq!(sh.total_refs, seq.total_refs, "{st:?} shards={shards}");
            }
        }
    }

    #[test]
    fn engine_journal_shards() {
        assert_eq!(Engine::Sequential.journal_shards(), 0);
        assert_eq!(Engine::Sharded(4).journal_shards(), 4);
        match Engine::auto() {
            Engine::Sequential => {}
            Engine::Sharded(n) => assert!(n > 1),
        }
    }

    #[test]
    fn sim_cache_memoizes() {
        let cache = SimCache::new();
        let a = cache.get(
            WorkloadKind::Hash,
            &scale(),
            &Structure::ThreeLevel,
            &RunOpts::default(),
        );
        let b = cache.get(
            WorkloadKind::Hash,
            &scale(),
            &Structure::ThreeLevel,
            &RunOpts::default(),
        );
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evaluate_baseline_and_nmm() {
        let cache = SimCache::new();
        let base = evaluate(
            WorkloadKind::Cg,
            &scale(),
            &Design::Baseline,
            &cache,
            &RunOpts::default(),
        );
        let nmm = evaluate(
            WorkloadKind::Cg,
            &scale(),
            &Design::Nmm {
                nvm: Technology::Pcm,
                config: n_configs()[2],
            },
            &cache,
            &RunOpts::default(),
        );
        let norm = nmm.metrics.normalized_to(&base.metrics);
        // PCM behind a DRAM cache costs some time but is in a sane band
        assert!(
            norm.time >= 0.9 && norm.time < 3.0,
            "norm.time = {}",
            norm.time
        );
        assert!(
            norm.energy > 0.05 && norm.energy < 5.0,
            "norm.energy = {}",
            norm.energy
        );
    }

    #[test]
    fn fourlc_and_fourlcnvm_share_sim() {
        let cache = SimCache::new();
        let eh = eh_configs()[0];
        let a = evaluate(
            WorkloadKind::Hash,
            &scale(),
            &Design::FourLc {
                llc: Technology::Edram,
                config: eh,
            },
            &cache,
            &RunOpts::default(),
        );
        let b = evaluate(
            WorkloadKind::Hash,
            &scale(),
            &Design::FourLcNvm {
                llc: Technology::Edram,
                nvm: Technology::Pcm,
                config: eh,
            },
            &cache,
            &RunOpts::default(),
        );
        assert!(
            Arc::ptr_eq(&a.run, &b.run),
            "same structure must share the simulation"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn grid_matches_serial() {
        let cache = SimCache::new();
        let points = vec![
            (WorkloadKind::Cg, Design::Baseline),
            (
                WorkloadKind::Cg,
                Design::Nmm {
                    nvm: Technology::Pcm,
                    config: n_configs()[0],
                },
            ),
            (WorkloadKind::Hash, Design::Baseline),
        ];
        let grid = evaluate_grid(
            &points,
            &scale(),
            &cache,
            Some(3),
            None,
            &RunOpts::default(),
        )
        .strict();
        assert_eq!(grid.len(), 3);
        for (r, (k, d)) in grid.iter().zip(&points) {
            assert_eq!(r.workload, *k);
            assert_eq!(r.design, *d);
            let serial = evaluate(*k, &scale(), d, &cache, &RunOpts::default());
            assert!((r.metrics.time_s - serial.metrics.time_s).abs() < 1e-15);
        }
    }
}
