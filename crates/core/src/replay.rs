//! Record/replay: persist a workload's address stream once, then drive
//! any number of hierarchy configurations from the file.
//!
//! The live path re-generates the stream per structure (`runner`
//! memoizes, but each distinct structure still pays a full workload
//! execution — data initialization, kernel arithmetic, verification). The
//! replay path pays the workload once at record time; after that the
//! config grid is a pure trace walk. The grid's distinct structures split
//! into one group per worker thread, and each group is served by one
//! fused pass: the file is decoded once and walks the shared L1–L3 once,
//! and L3's traffic fans out to each structure's own L4 and terminal.
//! Cache statistics depend only on the address stream and the geometry,
//! so a replayed run is bit-identical to the live run it was recorded
//! from, fused or not (the `record_replay` integration tests pin this).

use crate::design::{Design, Structure};
use crate::runner::{
    catch_panic, evaluate_run, parallel_slots, walk, worker_count, Engine, EvalResult, RawRun,
    RunOpts, Source,
};
use crate::sampling::{plan_for, SampleMode};
use crate::scale::Scale;
use memsim_tracefile::{TraceHeader, TraceReader, TraceWriter};
use memsim_workloads::{Class, WorkloadKind};
use std::path::Path;
use std::sync::Arc;

/// What [`record_workload`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSummary {
    /// Events recorded.
    pub events: u64,
    /// Chunks framed.
    pub chunks: u64,
    /// Total file size in bytes (header + chunks + footer).
    pub file_bytes: u64,
    /// The workload's registered footprint.
    pub footprint_bytes: u64,
}

impl RecordSummary {
    /// Mean encoded bytes per event over the whole file (0 when empty).
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.file_bytes as f64 / self.events as f64
        }
    }
}

/// Run `kind` at `class` with a [`TraceWriter`] as its sink, persisting
/// the complete address stream (plus the region table and provenance) to
/// `path`. The workload's self-verification still runs, so a recording of
/// a silently broken kernel fails loudly instead of poisoning the file.
pub fn record_workload(
    kind: WorkloadKind,
    class: Class,
    path: &Path,
) -> Result<RecordSummary, String> {
    let mut span = memsim_obs::span!("record.{}", kind.name());
    let mut workload = {
        let _s = memsim_obs::span!("generate");
        kind.build(class)
    };
    let header = TraceHeader::for_space(workload.space(), kind.name(), class.name());
    let footprint_bytes = workload.footprint_bytes();
    let mut writer = TraceWriter::create(path, &header)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    if memsim_obs::enabled() {
        let reg = memsim_obs::global();
        writer.set_probe(
            reg.counter("progress.events"),
            reg.counter("progress.chunks"),
        );
    }
    {
        let _s = memsim_obs::span!("stream");
        workload.run(&mut writer);
    }
    {
        let _s = memsim_obs::span!("verify");
        workload
            .verify()
            .map_err(|e| format!("{} failed self-verification: {e}", kind.name()))?;
    }
    let chunks = {
        use memsim_trace::TraceSink;
        writer.flush();
        writer.chunks_written()
    };
    let (_, events) = writer
        .finish()
        .map_err(|e| format!("recording {}: {e}", path.display()))?;
    span.add_events(events);
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    Ok(RecordSummary {
        events,
        chunks,
        file_bytes,
        footprint_bytes,
    })
}

/// The workload a trace records, parsed from its header.
pub fn trace_workload(path: &Path) -> Result<WorkloadKind, String> {
    let reader = TraceReader::open(path).map_err(|e| e.to_string())?;
    let name = &reader.header().workload;
    WorkloadKind::parse(name).ok_or_else(|| {
        if name.is_empty() {
            "trace has no recorded workload name (anonymous stream)".to_string()
        } else {
            format!("trace records unknown workload '{name}'")
        }
    })
}

/// One hierarchy structure whose trace walk did not survive, with every
/// design that depended on it. A fused walk that fails strands every
/// structure it served, each with the same message.
#[derive(Debug, Clone)]
pub struct ReplayFailure {
    /// The structure whose walk failed.
    pub structure: Structure,
    /// The designs that would have been costed from that structure's run.
    pub designs: Vec<Design>,
    /// The walk's error (decode error, or a panic payload).
    pub message: String,
}

impl std::fmt::Display for ReplayFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let labels: Vec<String> = self.designs.iter().map(Design::label).collect();
        write!(
            f,
            "structure {} (designs {}): {}",
            self.structure.obs_label(),
            labels.join(", "),
            self.message
        )
    }
}

/// What a fault-isolated [`replay_grid`] produced: results for every
/// design whose structure replayed cleanly, plus the per-structure
/// failures.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Surviving designs' results, in input order.
    pub results: Vec<EvalResult>,
    /// Structures that failed to replay, with the designs they strand.
    pub failures: Vec<ReplayFailure>,
}

impl ReplayOutcome {
    /// Every design's result, or an `Err` naming every stranded
    /// structure and design when any shard failed.
    pub fn strict(self) -> Result<Vec<EvalResult>, String> {
        if !self.failures.is_empty() {
            let list: Vec<String> = self.failures.iter().map(ReplayFailure::to_string).collect();
            return Err(format!(
                "{} replay shard(s) failed: {}",
                self.failures.len(),
                list.join("; ")
            ));
        }
        Ok(self.results)
    }
}

/// Evaluate a grid of designs against one recorded trace: the distinct
/// hierarchy *structures* among `designs` are walked under `opts`, then
/// every design is costed analytically from its structure's run — the
/// same two-phase split as the live [`crate::runner::evaluate_grid`], with
/// the workload execution replaced by a trace walk.
///
/// On the sequential engine, and whenever sampling is on, the structures
/// are dealt, in first-appearance order, round-robin into
/// `min(threads, structures)` groups (`threads` defaults to the available
/// parallelism), and each group is one fused [`walk`] on its own worker:
/// one decode (or, sampled, one seek through the representative windows)
/// and one L1–L3 walk per group, however many structures it holds. With
/// `--threads 1` the whole grid is a single pass over the file. Dealing
/// round-robin spreads the page-cache tails, which carry a walk's
/// per-structure cost, over the groups: the 3-level baseline, whose tail
/// is empty, comes first in the CLI's grids and shares a pass with one of
/// them. With sampling on, each walk simulates one representative
/// interval per cluster of the trace (per the shared
/// [`crate::SamplePlan`]) and extrapolates. Only the full-fidelity
/// sharded engine takes one structure per worker slot.
///
/// Fault-isolated per walk: a walk that fails to decode (corrupt chunk,
/// truncated file mid-walk) or panics strands every design of the
/// structures it served; every other walk completes and its designs are
/// costed. Errors that precede the walk (unreadable header, invalid
/// design, a sample plan that cannot be built) still fail the whole call;
/// [`ReplayOutcome::strict`] fails it on any stranded design too.
pub fn replay_grid(
    path: &Path,
    designs: &[Design],
    scale: &Scale,
    threads: Option<usize>,
    opts: &RunOpts,
) -> Result<ReplayOutcome, String> {
    let _span = memsim_obs::span!("replay");
    for d in designs {
        d.validate()?;
    }
    let kind = trace_workload(path)?;
    if let SampleMode::On(spec) = opts.sample {
        // built once per (trace, spec) and shared by every worker's walk
        plan_for(path, spec)?;
    }

    // distinct structures, in first-appearance order
    let mut distinct: Vec<Structure> = Vec::new();
    for d in designs {
        let s = d.structure(scale);
        if !distinct.contains(&s) {
            distinct.push(s);
        }
    }
    // Deal the structures round-robin into the walks' groups and store
    // them group-major, so each group is a contiguous slice.
    let n = distinct.len();
    let k = if opts.engine == Engine::Sequential || opts.sample.is_on() {
        worker_count(threads, n).min(n)
    } else {
        n
    };
    let structures: Vec<Structure> = (0..k)
        .flat_map(|g| distinct.iter().skip(g).step_by(k).copied())
        .collect();
    let mut rest = structures.as_slice();
    let groups: Vec<&[Structure]> = (0..k)
        .map(|g| {
            let (group, tail) = rest.split_at((n - g).div_ceil(k));
            rest = tail;
            group
        })
        .collect();

    let obs_on = memsim_obs::enabled();
    if obs_on {
        // Seed the shard progress counters so the sampler can show
        // completion and extrapolate an ETA from the first finished walk.
        let reg = memsim_obs::global();
        reg.gauge("progress.shards_total").set(groups.len() as u64);
        reg.counter("progress.shards_done");
    }

    let runs: Vec<Result<Arc<RawRun>, String>> = parallel_slots(
        "memsim-replay",
        groups.len(),
        threads,
        || false,
        |g| {
            // Isolate panics per walk for the same reason as the live
            // grid: one bad walk must not take the others down.
            let runs = catch_panic(|| walk(Source::Trace(path), scale, groups[g], opts, Some(g)))
                .unwrap_or_else(|message| Err(format!("shard panicked: {message}")));
            if obs_on {
                memsim_obs::global().counter("progress.shards_done").inc();
            }
            runs
        },
    )
    .into_iter()
    .zip(&groups)
    .flat_map(|(slot, group)| match slot.expect("missing replay result") {
        Ok(runs) => runs
            .into_iter()
            .map(|r| Ok(Arc::new(r)))
            .collect::<Vec<_>>(),
        Err(message) => vec![Err(message); group.len()],
    })
    .collect();

    let mut results = Vec::new();
    let mut failures: Vec<ReplayFailure> = Vec::new();
    for d in designs {
        let idx = structures
            .iter()
            .position(|s| *s == d.structure(scale))
            .expect("structure recorded for every design");
        match &runs[idx] {
            Ok(run) => results.push(evaluate_run(kind, scale, d, Arc::clone(run))),
            Err(message) => {
                if let Some(f) = failures.iter_mut().find(|f| f.structure == structures[idx]) {
                    f.designs.push(*d);
                } else {
                    failures.push(ReplayFailure {
                        structure: structures[idx],
                        designs: vec![*d],
                        message: message.clone(),
                    });
                }
            }
        }
    }
    let cis: Vec<crate::sampling::SampleCi> = results.iter().filter_map(|r| r.sample_ci).collect();
    crate::sampling::publish_ci_summary(&cis);
    Ok(ReplayOutcome { results, failures })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::n_configs;
    use memsim_tech::Technology;
    use std::path::PathBuf;

    fn temp_trace(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("memsim-core-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn record_then_replay_grid_matches_live_grid() {
        let scale = Scale::mini();
        let path = temp_trace("hash.trace");
        let summary = record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
        assert!(summary.events > 100_000);
        assert!(summary.chunks > 0);
        assert!(summary.bytes_per_event() > 0.0);
        assert_eq!(trace_workload(&path).unwrap(), WorkloadKind::Hash);

        // three structures over two workers: a fused group of two and
        // a lone walk
        let designs = vec![
            Design::Baseline,
            Design::Nmm {
                nvm: Technology::Pcm,
                config: n_configs()[0],
            },
            Design::FourLc {
                llc: Technology::Edram,
                config: crate::configs::eh_configs()[0],
            },
        ];
        let opts = RunOpts::default();
        let replayed = replay_grid(&path, &designs, &scale, Some(2), &opts)
            .and_then(ReplayOutcome::strict)
            .unwrap();

        let cache = crate::runner::SimCache::new();
        for (r, d) in replayed.iter().zip(&designs) {
            let live = crate::runner::evaluate(WorkloadKind::Hash, &scale, d, &cache, &opts);
            assert_eq!(r.workload, WorkloadKind::Hash);
            assert_eq!(r.run.caches, live.run.caches, "{}", d.label());
            assert_eq!(r.run.mem, live.run.mem, "{}", d.label());
            assert_eq!(r.run.total_refs, live.run.total_refs);
            assert!((r.metrics.time_s - live.metrics.time_s).abs() < 1e-15);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_replay_matches_sequential_replay() {
        let scale = Scale::mini();
        let path = temp_trace("hash-sharded.trace");
        record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
        let st = Structure::ThreeLevel;
        let trace = Source::Trace(&path);
        let seq = walk(trace, &scale, &[st], &RunOpts::default(), None)
            .unwrap()
            .remove(0);
        for shards in [2usize, 7] {
            let opts = RunOpts {
                engine: Engine::Sharded(shards),
                ..RunOpts::default()
            };
            let sh = walk(trace, &scale, &[st], &opts, None).unwrap().remove(0);
            assert_eq!(sh.caches, seq.caches, "shards={shards}");
            assert_eq!(sh.mem, seq.mem, "shards={shards}");
            assert_eq!(sh.per_region, seq.per_region, "shards={shards}");
            assert_eq!(sh.total_refs, seq.total_refs, "shards={shards}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_of_missing_file_errors() {
        let scale = Scale::mini();
        let err = replay_grid(
            Path::new("/nonexistent/never.trace"),
            &[Design::Baseline],
            &scale,
            None,
            &RunOpts::default(),
        )
        .unwrap_err();
        assert!(err.contains("I/O error"), "{err}");
    }
}
