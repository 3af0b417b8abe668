//! Record/replay: persist a workload's address stream once, then drive
//! any number of hierarchy configurations from the file.
//!
//! The live path re-generates the stream per structure (`runner`
//! memoizes, but each distinct structure still pays a full workload
//! execution — data initialization, kernel arithmetic, verification). The
//! replay path pays the workload once at record time; after that every
//! structure in the config grid is a pure trace walk, and the walks shard
//! across threads with each worker streaming the file independently.
//! Cache statistics depend only on the address stream and the geometry,
//! so a replayed run is bit-identical to the live run it was recorded
//! from (the `record_replay` integration tests pin this).

use crate::design::{Design, Structure};
use crate::runner::{
    catch_panic, evaluate_run, parallel_slots, walk_as, EvalResult, RawRun, RunOpts, Source,
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
/// design that depended on it.
#[derive(Debug, Clone)]
pub struct ReplayFailure {
    /// The structure whose shard failed.
    pub structure: Structure,
    /// The designs that would have been costed from that structure's run.
    pub designs: Vec<Design>,
    /// The shard's error (decode error, or a panic payload).
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

/// Evaluate a grid of designs against one recorded trace, sharded in
/// parallel: the distinct hierarchy *structures* among `designs` are
/// walked concurrently under `opts` (each worker streams the file
/// independently, so there is no shared decode state to contend on), then
/// every design is costed analytically from its structure's run — the
/// same two-phase split as the live [`crate::runner::evaluate_grid`], with
/// the workload execution replaced by a trace walk. With sampling on,
/// each walk simulates one representative interval per cluster of the
/// trace (per the shared [`crate::SamplePlan`]) and extrapolates.
///
/// Fault-isolated: a shard that fails to decode (corrupt chunk, truncated
/// file mid-walk) or panics strands only the designs sharing its
/// structure; every other shard completes and its designs are costed.
/// Errors that precede the walk (unreadable header, invalid design, a
/// sample plan that cannot be built) still fail the whole call;
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
    let mut structures: Vec<Structure> = Vec::new();
    for d in designs {
        let s = d.structure(scale);
        if !structures.contains(&s) {
            structures.push(s);
        }
    }

    let obs_on = memsim_obs::enabled();
    if obs_on {
        // Seed the shard progress counters so the sampler can show
        // completion and extrapolate an ETA from the first finished shard.
        let reg = memsim_obs::global();
        reg.gauge("progress.shards_total")
            .set(structures.len() as u64);
        reg.counter("progress.shards_done");
    }

    let runs: Vec<Result<Arc<RawRun>, String>> = parallel_slots(
        "memsim-replay",
        structures.len(),
        threads,
        || false,
        |i| {
            // Isolate panics per shard for the same reason as the live
            // grid: one bad shard must not take the others down.
            let run = match catch_panic(|| {
                walk_as(Source::Trace(path), scale, &structures[i], opts, Some(i))
            }) {
                Ok(Ok(run)) => Ok(Arc::new(run)),
                Ok(Err(e)) => Err(e),
                Err(message) => Err(format!("shard panicked: {message}")),
            };
            if obs_on {
                memsim_obs::global().counter("progress.shards_done").inc();
            }
            run
        },
    )
    .into_iter()
    .map(|slot| slot.expect("missing replay result"))
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

        let designs = vec![
            Design::Baseline,
            Design::Nmm {
                nvm: Technology::Pcm,
                config: n_configs()[0],
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
        let seq = crate::runner::walk(trace, &scale, &st, &RunOpts::default()).unwrap();
        for shards in [2usize, 7] {
            let opts = RunOpts {
                engine: crate::runner::Engine::Sharded(shards),
                ..RunOpts::default()
            };
            let sh = crate::runner::walk(trace, &scale, &st, &opts).unwrap();
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
