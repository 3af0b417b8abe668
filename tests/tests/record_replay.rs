//! Golden record→replay equivalence: a trace recorded at mini scale and
//! replayed through the same hierarchy configuration must produce
//! *bit-identical* `LevelStats` at every level (and identical per-region
//! terminal traffic) to the live run that generated it. Cache behaviour is
//! a pure function of the address stream and the geometry, so any
//! divergence means the trace file altered the stream — an encoding bug,
//! a lost tail chunk, or a replay-side delivery difference.

use memsim_core::configs::{eh_by_name, n_by_name};
use memsim_core::replay::record_workload;
use memsim_core::{replay_grid, walk, Design, RawRun, RunOpts, Scale, Source, Structure};
use memsim_tech::Technology;
use memsim_workloads::{Class, WorkloadKind};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::HashMap;
use std::path::PathBuf;

fn designs_under_test() -> Vec<Design> {
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

fn assert_bit_identical(live: &RawRun, replayed: &RawRun, what: &str) {
    assert_eq!(live.caches, replayed.caches, "{what}: cache LevelStats");
    assert_eq!(live.mem, replayed.mem, "{what}: terminal LevelStats");
    assert_eq!(live.per_region, replayed.per_region, "{what}: per-region");
    assert_eq!(live.region_names, replayed.region_names, "{what}: names");
    assert_eq!(live.region_sizes, replayed.region_sizes, "{what}: sizes");
    assert_eq!(live.region_starts, replayed.region_starts, "{what}: starts");
    assert_eq!(live.total_refs, replayed.total_refs, "{what}: total refs");
    assert_eq!(
        live.footprint_bytes, replayed.footprint_bytes,
        "{what}: footprint"
    );
}

fn golden_roundtrip(kind: WorkloadKind) {
    let scale = Scale::mini();
    let dir = std::env::temp_dir().join(format!("memsim-golden-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("{}.trace", kind.name()));

    let summary = record_workload(kind, Class::Mini, &path).unwrap();
    assert!(summary.events > 0, "{}: empty recording", kind.name());

    for design in designs_under_test() {
        let structure = design.structure(&scale);
        let live = walk(
            Source::Live(kind),
            &scale,
            &[structure],
            &RunOpts::default(),
            None,
        )
        .unwrap()
        .remove(0);
        let replayed = walk(
            Source::Trace(&path),
            &scale,
            &[structure],
            &RunOpts::default(),
            None,
        )
        .unwrap()
        .remove(0);
        assert_bit_identical(
            &live,
            &replayed,
            &format!("{} × {}", kind.name(), design.label()),
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn cg_replay_is_bit_identical_to_live_run() {
    golden_roundtrip(WorkloadKind::Cg);
}

#[test]
fn hash_replay_is_bit_identical_to_live_run() {
    golden_roundtrip(WorkloadKind::Hash);
}

/// 3L, or a page cache of 64 KiB–4 MiB with 64 B–4 KiB pages.
fn structure() -> impl Strategy<Value = Structure> {
    (0u32..5, 0u32..4).prop_map(|(cap, page)| match cap {
        4 => Structure::ThreeLevel,
        _ => Structure::WithL4 {
            capacity_bytes: (64 << 10) << (2 * cap),
            page_bytes: 64 << (2 * page),
        },
    })
}

/// One sequential walk over a random set of structures (3L and page
/// caches of several capacities and page sizes, repeats allowed) equals
/// walking each structure alone, field for field, from a live workload
/// and from its recorded trace. (A property run by hand rather than by
/// `proptest!`, so the recording is made once and removed at the end.)
#[test]
fn fused_walk_equals_per_structure_walks() {
    let scale = Scale::mini();
    let dir = std::env::temp_dir().join(format!("memsim-fused-walk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sp.trace");
    record_workload(WorkloadKind::Sp, Class::Mini, &path).unwrap();
    let source = |live: bool| {
        if live {
            Source::Live(WorkloadKind::Sp)
        } else {
            Source::Trace(&path)
        }
    };
    // lone walks, memoized: the cases draw the same structures often
    let mut alone: HashMap<(bool, Structure), RawRun> = HashMap::new();

    let sets = proptest::collection::vec(structure(), 1..5);
    let mut rng = TestRng::from_name("fused_walk_equals_per_structure_walks");
    for _ in 0..8 {
        let structures = sets.sample(&mut rng);
        for live in [false, true] {
            let fused = walk(source(live), &scale, &structures, &RunOpts::default(), None).unwrap();
            assert_eq!(fused.len(), structures.len());
            for (run, structure) in fused.iter().zip(&structures) {
                let alone = alone.entry((live, *structure)).or_insert_with(|| {
                    walk(
                        source(live),
                        &scale,
                        &[*structure],
                        &RunOpts::default(),
                        None,
                    )
                    .unwrap()
                    .remove(0)
                });
                let what = format!("{structure:?} in {structures:?} (live: {live})");
                assert_eq!(run.caches, alone.caches, "{what}: caches");
                assert_eq!(run.mem, alone.mem, "{what}: mem");
                assert_eq!(run.per_region, alone.per_region, "{what}: per-region");
                assert_eq!(run.total_refs, alone.total_refs, "{what}: total refs");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt chunk in the middle of the trace fails the fused walk that
/// reads it, and with it every structure that walk served: each failure
/// carries the decode error a lone walk of the same file reports.
#[test]
fn corrupt_chunk_fails_every_structure_of_the_fused_walk() {
    let dir = std::env::temp_dir().join(format!("memsim-corrupt-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hash.trace");
    record_workload(WorkloadKind::Hash, Class::Mini, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&path, &bytes).unwrap();

    let scale = Scale::mini();
    let designs = [
        Design::Baseline,
        Design::Nmm {
            nvm: Technology::Pcm,
            config: n_by_name("N6").unwrap(),
        },
        Design::FourLc {
            llc: Technology::Edram,
            config: eh_by_name("EH1").unwrap(),
        },
    ];
    let decode_error = walk(
        Source::Trace(&path),
        &scale,
        &[Structure::ThreeLevel],
        &RunOpts::default(),
        None,
    )
    .unwrap_err();
    let outcome = replay_grid(&path, &designs, &scale, Some(1), &RunOpts::default()).unwrap();
    assert!(outcome.results.is_empty(), "no structure survives the pass");
    let failed: Vec<Structure> = outcome.failures.iter().map(|f| f.structure).collect();
    let want: Vec<Structure> = designs.iter().map(|d| d.structure(&scale)).collect();
    assert_eq!(failed, want, "every structure of the group is named");
    for f in &outcome.failures {
        assert_eq!(f.message, decode_error, "{f}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
