//! Golden sampled-vs-full accuracy: an interval-sampled replay must
//! land within the paper-grade error budget (<2% AMAT / energy against
//! the full-fidelity run of the same trace), the *reported* confidence
//! interval must cover the *true* error, and a plan that simulates every
//! interval (clusters ≥ intervals, functional warmup) must be
//! bit-identical to the full walk — sampling with nothing left out is
//! not allowed to perturb a single counter. Journals written in one
//! fidelity mode must refuse to resume a sweep in the other.

use memsim_core::configs::{eh_by_name, n_by_name};
use memsim_core::replay::record_workload;
use memsim_core::runner::evaluate_run;
use memsim_core::sampling::{
    build_plan, plan_for, sample_ci, walk_windows, SamplePlan, SampleSpec, Warmup,
};
use memsim_core::{
    replay_grid, walk, Design, LevelCost, RawRun, RunOpts, SampleMode, Scale, SimCache, Source,
    Structure, SweepCtx, JOURNAL_FILE,
};
use memsim_tech::{TechParams, Technology};
use memsim_workloads::{Class, WorkloadKind};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memsim-sampling-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The paper structures the acceptance pins: a 4LC with eDRAM LLC and
/// the NMM design at N6 (NDM is excluded — its oracle partitioner
/// re-places regions per costing, so it has no per-run CI).
fn paper_designs() -> Vec<Design> {
    vec![
        Design::FourLc {
            llc: Technology::Edram,
            config: eh_by_name("EH1").expect("EH1 exists"),
        },
        Design::Nmm {
            nvm: Technology::Pcm,
            config: n_by_name("N6").expect("N6 exists"),
        },
    ]
}

fn rel_err(sampled: f64, full: f64) -> f64 {
    (sampled - full).abs() / full
}

fn golden_accuracy(kind: WorkloadKind) {
    let scale = Scale::mini();
    let dir = tmp_dir(&format!("golden-{}", kind.name()));
    let path = dir.join("w.trace");
    let summary = record_workload(kind, Class::Mini, &path).unwrap();
    assert!(summary.events > 0, "{}: empty recording", kind.name());

    // ~12 intervals squeezed into 4 clusters: a real extrapolation
    // (weights > 1) so the CI is exercised, not the exact degenerate case
    let spec = SampleSpec {
        interval: (summary.events / 12).max(1),
        clusters: 4,
        warmup: Warmup::Functional,
    };
    let plan = build_plan(&path, spec).unwrap();
    assert!(
        plan.intervals >= 8,
        "plan too coarse: {} intervals",
        plan.intervals
    );

    for design in paper_designs() {
        let structure = design.structure(&scale);
        let full = walk(
            Source::Trace(&path),
            &scale,
            &[structure],
            &RunOpts::default(),
            None,
        )
        .unwrap()
        .remove(0);
        let sampled = walk_windows(&path, &scale, &[structure], &plan)
            .unwrap()
            .remove(0);
        let what = format!("{} × {}", kind.name(), design.label());

        let full_eval = evaluate_run(kind, &scale, &design, Arc::new(full));
        let samp_eval = evaluate_run(kind, &scale, &design, Arc::new(sampled));
        let ci = samp_eval
            .sample_ci
            .unwrap_or_else(|| panic!("{what}: sampled run must report a CI"));

        let amat_err = rel_err(samp_eval.metrics.amat_ns, full_eval.metrics.amat_ns);
        let energy_err = rel_err(samp_eval.metrics.energy_j(), full_eval.metrics.energy_j());
        assert!(
            amat_err < 0.02,
            "{what}: AMAT error {:.3}% ≥ 2%",
            100.0 * amat_err
        );
        assert!(
            energy_err < 0.02,
            "{what}: energy error {:.3}% ≥ 2%",
            100.0 * energy_err
        );
        // the honesty pin: the interval the run *reports* must cover the
        // error it actually made (z=2 halfwidth vs the golden run)
        assert!(
            amat_err <= ci.amat,
            "{what}: true AMAT error {:.4}% outside reported CI ±{:.4}%",
            100.0 * amat_err,
            100.0 * ci.amat
        );
        assert!(
            energy_err <= ci.energy,
            "{what}: true energy error {:.4}% outside reported CI ±{:.4}%",
            100.0 * energy_err,
            100.0 * ci.energy
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cg_sampled_error_is_small_and_inside_reported_ci() {
    golden_accuracy(WorkloadKind::Cg);
}

#[test]
fn hash_sampled_error_is_small_and_inside_reported_ci() {
    golden_accuracy(WorkloadKind::Hash);
}

#[test]
fn clusters_at_least_intervals_is_bit_identical_to_full_run() {
    let scale = Scale::mini();
    let dir = tmp_dir("exact");
    let path = dir.join("w.trace");
    let summary = record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();

    // every interval its own cluster: with functional warmup the sampled
    // walk feeds every event to one hierarchy in order — the split into
    // snapshot deltas must be invisible
    let spec = SampleSpec {
        interval: (summary.events / 3).max(1),
        clusters: 64,
        warmup: Warmup::Functional,
    };
    let plan = build_plan(&path, spec).unwrap();
    assert_eq!(
        plan.clusters.len() as u64,
        plan.intervals,
        "clusters ≥ intervals must degenerate to one cluster per interval"
    );

    for design in paper_designs() {
        let structure = design.structure(&scale);
        let full = walk(
            Source::Trace(&path),
            &scale,
            &[structure],
            &RunOpts::default(),
            None,
        )
        .unwrap()
        .remove(0);
        let sampled = walk_windows(&path, &scale, &[structure], &plan)
            .unwrap()
            .remove(0);
        let what = design.label();
        assert_eq!(full.caches, sampled.caches, "{what}: cache LevelStats");
        assert_eq!(full.mem, sampled.mem, "{what}: terminal LevelStats");
        assert_eq!(full.total_refs, sampled.total_refs, "{what}: total refs");

        // and the CI must be exactly zero: nothing was extrapolated
        let eval = evaluate_run(WorkloadKind::Hash, &scale, &design, Arc::new(sampled));
        let ci = eval.sample_ci.expect("sampled run reports a CI");
        assert_eq!(ci.amat, 0.0, "{what}: exact plan must report zero CI");
        assert_eq!(ci.energy, 0.0, "{what}: exact plan must report zero CI");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// 3L, or a page cache of 64 KiB–8 MiB with 64 B–4 KiB pages.
fn structure() -> impl Strategy<Value = Structure> {
    (0usize..6, 0u32..4).prop_map(|(cap, page)| match cap {
        5 => Structure::ThreeLevel,
        _ => Structure::WithL4 {
            capacity_bytes: (64 << 10) << [0, 1, 3, 5, 7][cap],
            page_bytes: 64 << (2 * page),
        },
    })
}

/// A cost vector aligned with `run`'s levels, for comparing CIs.
fn costs_of(run: &RawRun) -> Vec<LevelCost> {
    run.all_levels()
        .iter()
        .map(|s| {
            let tech = match s.name.as_str() {
                "L4" => Technology::Edram,
                "MEM" => Technology::Pcm,
                _ => Technology::Sram,
            };
            LevelCost::from_tech(&s.name, &TechParams::of(tech), 1 << 20)
        })
        .collect()
}

/// One sampled pass over a random set of structures (3L and page caches
/// of several capacities and page sizes, repeats allowed) equals the
/// sampled walk of each structure alone, field for field, cluster run
/// for cluster run, under both warmup policies and for an extrapolating
/// and a degenerate plan. (A property run by hand rather than by
/// `proptest!`, so the recording and plans are made once.)
#[test]
fn fused_sampled_walk_equals_per_structure_walks() {
    let scale = Scale::mini();
    let dir = tmp_dir("fused");
    let path = dir.join("w.trace");
    let events = record_workload(WorkloadKind::Hash, Class::Mini, &path)
        .unwrap()
        .events;
    // ~12 intervals in 4 clusters, and every interval its own cluster
    let plans: Vec<SamplePlan> = [(events / 12, 4), (events / 3, 64)]
        .into_iter()
        .flat_map(|(interval, clusters)| {
            [Warmup::Functional, Warmup::Cold].map(|warmup| SampleSpec {
                interval: interval.max(1),
                clusters,
                warmup,
            })
        })
        .map(|spec| build_plan(&path, spec).unwrap())
        .collect();
    assert!(plans[0].clusters.iter().any(|c| c.weight > 1));
    assert_eq!(plans[2].clusters.len() as u64, plans[2].intervals);
    // lone walks, memoized: the cases draw the same structures often
    let mut alone: HashMap<(usize, Structure), RawRun> = HashMap::new();

    let sets = proptest::collection::vec(structure(), 1..5);
    let mut rng = TestRng::from_name("fused_sampled_walk_equals_per_structure_walks");
    for case in 0..8 {
        let structures = sets.sample(&mut rng);
        let p = case % plans.len();
        let plan = &plans[p];
        let fused = walk_windows(&path, &scale, &structures, plan).unwrap();
        assert_eq!(fused.len(), structures.len());
        for (run, structure) in fused.iter().zip(&structures) {
            let alone = alone.entry((p, *structure)).or_insert_with(|| {
                walk_windows(&path, &scale, &[*structure], plan)
                    .unwrap()
                    .remove(0)
            });
            let what = format!("{structure:?} in {structures:?} ({:?})", plan.spec);
            assert_eq!(run.caches, alone.caches, "{what}: caches");
            assert_eq!(run.mem, alone.mem, "{what}: mem");
            assert_eq!(run.per_region, alone.per_region, "{what}: per-region");
            assert_eq!(run.total_refs, alone.total_refs, "{what}: total refs");
            let (a, b) = (run.sample.as_ref().unwrap(), alone.sample.as_ref().unwrap());
            assert_eq!(a.cluster_runs.len(), b.cluster_runs.len(), "{what}");
            for (x, y) in a.cluster_runs.iter().zip(&b.cluster_runs) {
                let rep = y.representative;
                assert_eq!(x.representative, rep, "{what}: representative");
                assert_eq!(x.weight, y.weight, "{what}: cluster {rep} weight");
                assert_eq!(x.refs, y.refs, "{what}: cluster {rep} refs");
                assert_eq!(x.caches, y.caches, "{what}: cluster {rep} caches");
                assert_eq!(x.mem, y.mem, "{what}: cluster {rep} mem");
                assert_eq!(x.per_region, y.per_region, "{what}: cluster {rep} regions");
            }
            let costs = costs_of(run);
            assert_eq!(
                sample_ci(run, &costs),
                sample_ci(alone, &costs),
                "{what}: sample_ci"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With every interval its own cluster, one sampled pass over three
/// structures equals each structure's full walk.
#[test]
fn degenerate_fused_sampled_walk_equals_full_walks() {
    let scale = Scale::mini();
    let dir = tmp_dir("fused-exact");
    let path = dir.join("w.trace");
    let summary = record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
    let spec = SampleSpec {
        interval: (summary.events / 3).max(1),
        clusters: 64,
        warmup: Warmup::Functional,
    };
    let plan = build_plan(&path, spec).unwrap();
    let structures: Vec<Structure> = std::iter::once(Design::Baseline)
        .chain(paper_designs())
        .map(|d| d.structure(&scale))
        .collect();
    let sampled = walk_windows(&path, &scale, &structures, &plan).unwrap();
    for (run, structure) in sampled.iter().zip(&structures) {
        let full = walk(
            Source::Trace(&path),
            &scale,
            &[*structure],
            &RunOpts::default(),
            None,
        )
        .unwrap()
        .remove(0);
        let what = structure.obs_label();
        assert_eq!(run.caches, full.caches, "{what}: cache LevelStats");
        assert_eq!(run.mem, full.mem, "{what}: terminal LevelStats");
        assert_eq!(run.per_region, full.per_region, "{what}: per-region");
        assert_eq!(run.total_refs, full.total_refs, "{what}: total refs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip one payload byte of the chunk that holds event `event` of the
/// trace at `path`, keeping the file size.
fn corrupt_chunk_holding(path: &Path, event: u64) {
    let mut bytes = std::fs::read(path).unwrap();
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    // magic, version, body_len, body, crc
    let mut at = 16 + u32_at(&bytes, 12) as usize + 4;
    let mut first = 0u64;
    loop {
        let count = u32_at(&bytes, at);
        assert!(count > 0, "event {event} lies past the last chunk");
        let payload_len = u32_at(&bytes, at + 4) as usize;
        // count, payload_len, first_addr, crc
        let payload = at + 20;
        if event < first + u64::from(count) {
            bytes[payload + payload_len / 2] ^= 0x5a;
            break;
        }
        first += u64::from(count);
        at = payload + payload_len;
    }
    std::fs::write(path, &bytes).unwrap();
}

/// A corrupt chunk inside a representative window fails the sampled pass
/// that reads it, and with it every structure that pass served: the
/// fused walk, each lone walk and the replay grid's failures all carry
/// the same decode error.
#[test]
fn corrupt_window_fails_every_structure_of_the_sampled_pass() {
    let scale = Scale::mini();
    let dir = tmp_dir("corrupt");
    let path = dir.join("hash.trace");
    let summary = record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
    let spec = SampleSpec {
        interval: (summary.events / 12).max(1),
        clusters: 4,
        warmup: Warmup::Functional,
    };
    // the plan of the clean trace, memoized for the replay grid below
    let plan = plan_for(&path, spec).unwrap();
    let rep = plan
        .clusters
        .iter()
        .map(|c| c.representative)
        .max()
        .unwrap();
    corrupt_chunk_holding(&path, plan.interval_bounds(rep).0);
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        summary.file_bytes,
        "same size"
    );

    let designs: Vec<Design> = std::iter::once(Design::Baseline)
        .chain(paper_designs())
        .collect();
    let structures: Vec<Structure> = designs.iter().map(|d| d.structure(&scale)).collect();
    let fused = walk_windows(&path, &scale, &structures, &plan)
        .unwrap_err()
        .to_string();
    for s in &structures {
        let lone = walk_windows(&path, &scale, &[*s], &plan)
            .unwrap_err()
            .to_string();
        assert_eq!(fused, lone, "{}", s.obs_label());
    }

    let opts = RunOpts {
        sample: SampleMode::On(spec),
        ..RunOpts::default()
    };
    let outcome = replay_grid(&path, &designs, &scale, Some(1), &opts).unwrap();
    assert!(outcome.results.is_empty(), "no structure survives the pass");
    let failed: Vec<Structure> = outcome.failures.iter().map(|f| f.structure).collect();
    assert_eq!(failed, structures, "every structure of the group is named");
    for f in &outcome.failures {
        assert_eq!(f.message, fused, "{f}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_refuses_cross_fidelity_resume_in_both_directions() {
    let scale = Scale::mini();
    let on = SampleMode::parse("interval=65536,clusters=4").unwrap();
    // one real point to journal in each mode — refusal is per recorded
    // line, so an empty journal legitimately resumes either way
    let point = memsim_core::evaluate(
        WorkloadKind::Hash,
        &scale,
        &Design::Baseline,
        &SimCache::new(),
        &RunOpts::default(),
    );

    // sampled journal → full-fidelity resume must refuse
    let dir = tmp_dir("xres-a");
    let journal = dir.join(JOURNAL_FILE);
    let ctx = SweepCtx::fresh(
        &scale,
        &journal,
        &RunOpts {
            sample: on,
            ..RunOpts::default()
        },
    )
    .unwrap();
    ctx.record(&point);
    drop(ctx);
    let err = match SweepCtx::resume(&scale, &journal, &RunOpts::default()) {
        Err(e) => e,
        Ok(_) => panic!("resuming a sampled journal at full fidelity must be refused"),
    };
    assert!(
        err.contains("sample"),
        "refusal must name the fidelity mismatch: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // full-fidelity journal → sampled resume must refuse
    let dir = tmp_dir("xres-b");
    let journal = dir.join(JOURNAL_FILE);
    let ctx = SweepCtx::fresh(&scale, &journal, &RunOpts::default()).unwrap();
    ctx.record(&point);
    drop(ctx);
    let err = match SweepCtx::resume(
        &scale,
        &journal,
        &RunOpts {
            sample: on,
            ..RunOpts::default()
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("resuming a full-fidelity journal with sampling on must be refused"),
    };
    assert!(
        err.contains("sample"),
        "refusal must name the fidelity mismatch: {err}"
    );
    // and the matching mode still resumes fine
    assert!(SweepCtx::resume(&scale, &journal, &RunOpts::default()).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
