//! Per-layer ladder of the memsim benchmark.
//!
//! Times each simulator layer on one workload's real address stream by
//! calling the crates below `memsim-core` directly (core contributes only
//! its value types: `Scale`, `Design`, `Structure`):
//!
//! ```text
//! memsim-perfbench-ladder record --workload hash --class mini --seed 19028 --out hash.trace
//! memsim-perfbench-ladder layers --workload cg --class mini --seed 1 --seconds 10 --dir DIR
//! ```
//!
//! `record` writes a trace through `TraceWriter` (the only way to record
//! Hash with a chosen seed). `layers` times, in interleaved rounds:
//! workload build and emission into a `CountingSink`, trace recording and
//! decode, then a ladder of hierarchies over the recorded stream — decode
//! only, +L1, +L2, +L3, +L4 with `CountingMemory` as the terminal, the
//! full hierarchy over `PartitionedMemory`, the 3-level walk delivered
//! per event, and the full hierarchy on the 2-shard engine. It prints one
//! JSON object with the spans it recorded (one per rung per round) and
//! the exact per-level counts of the 3-level and full rungs.

use memsim_cache::{
    Cache, CacheConfig, CountingMemory, Hierarchy, LevelStats, MainMemory, ShardedHierarchy,
};
use memsim_core::configs::n_by_name;
use memsim_core::{Design, Scale, Structure};
use memsim_memory::PartitionedMemory;
use memsim_tech::Technology;
use memsim_trace::sinks::CountingSink;
use memsim_trace::TraceSink;
use memsim_tracefile::{replay_into, TraceHeader, TraceReader, TraceWriter};
use memsim_workloads::{Class, Hash, HashParams, Workload, WorkloadKind};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Rounds run even when `--seconds` is already spent, so every rung has
/// a median over at least this many timings.
const MIN_ROUNDS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ladder: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: WorkloadKind,
    class: Class,
    seed: u64,
    seconds: f64,
    out: Option<PathBuf>,
    dir: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: WorkloadKind::Cg,
        class: Class::Mini,
        seed: 0,
        seconds: 0.0,
        out: None,
        dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                a.workload =
                    WorkloadKind::parse(val).ok_or_else(|| format!("unknown workload {val}"))?
            }
            "--class" => {
                a.class = Class::parse(val).ok_or_else(|| format!("unknown class {val}"))?
            }
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                a.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {val}: not a non-negative number"))?
            }
            "--out" => a.out = Some(PathBuf::from(val)),
            "--dir" => a.dir = Some(PathBuf::from(val)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

fn run(args: &[String]) -> Result<String, String> {
    let cmd = args.first().ok_or("usage: ladder record|layers [flags]")?;
    let a = parse(&args[1..])?;
    match cmd.as_str() {
        "record" => {
            let out = a.out.as_deref().ok_or("record needs --out")?;
            let (events, bytes) = record(&a, out)?;
            Ok(format!(
                "{{\"events\":{events},\"file_bytes\":{bytes},\"bytes_per_event\":{}}}",
                bytes as f64 / events as f64
            ))
        }
        "layers" => layers(&a),
        other => Err(format!("unknown command {other}")),
    }
}

/// The workload the benchmark drives. Only Hash takes the seed: CG and
/// AMG2013 have no random input.
fn build(a: &Args) -> Box<dyn Workload> {
    match a.workload {
        WorkloadKind::Hash => Box::new(Hash::new(HashParams {
            seed: a.seed,
            ..HashParams::class(a.class)
        })),
        kind => kind.build(a.class),
    }
}

/// Record the workload's stream to `path`, verifying the kernel's result.
/// Returns (events, file bytes).
fn record(a: &Args, path: &Path) -> Result<(u64, u64), String> {
    let mut w = build(a);
    let header = TraceHeader::for_space(w.space(), w.name(), a.class.name());
    let mut writer =
        TraceWriter::create(path, &header).map_err(|e| format!("{}: {e}", path.display()))?;
    w.run(&mut writer);
    w.verify()?;
    let (_, events) = writer
        .finish()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    Ok((events, bytes))
}

fn scale(class: Class) -> Scale {
    match class {
        Class::Mini => Scale::mini(),
        Class::Demo => Scale::demo(),
        Class::Large => Scale::paper(),
    }
}

/// The cache levels of `structure` at `scale`, built from the cache
/// crate's own config type. The `replay.<label>.<L>.*` cross-check in
/// perfbench/run.py proves this is the geometry `memsim replay` walks.
fn caches(scale: &Scale, structure: &Structure) -> Vec<Cache> {
    let sram =
        |name, bytes, ways| Cache::new(CacheConfig::new(name, bytes, scale.line_bytes, ways));
    let mut levels = vec![
        sram("L1", scale.l1_bytes, scale.l1_ways),
        sram("L2", scale.l2_bytes, scale.l2_ways),
        sram("L3", scale.l3_bytes, scale.l3_ways),
    ];
    if let Structure::WithL4 {
        capacity_bytes,
        page_bytes,
    } = *structure
    {
        let page = u64::from(page_bytes);
        let mut ways = scale.l4_ways;
        while ways > 1 && !(capacity_bytes / (page * u64::from(ways))).is_power_of_two() {
            ways /= 2;
        }
        let set_bytes = page * u64::from(ways);
        let cap = (capacity_bytes - capacity_bytes % set_bytes).max(set_bytes);
        let mut cfg = CacheConfig::new("L4", cap, page_bytes, ways);
        if page_bytes > scale.line_bytes {
            cfg = cfg.with_sectors(scale.line_bytes);
        }
        levels.push(Cache::new(cfg));
    }
    levels
}

/// Spans recorded around each call into a layer: name, start and end in
/// ns since the ladder started, and the index of the enclosing span.
struct Spans {
    t0: Instant,
    list: Vec<(String, u64, u64, Option<usize>)>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            list: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &str) {
        let now = self.t0.elapsed().as_nanos() as u64;
        self.list
            .push((name.to_string(), now, now, self.open.last().copied()));
        self.open.push(self.list.len() - 1);
    }

    /// Close the innermost span.
    fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.list[i].2 = self.t0.elapsed().as_nanos() as u64;
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .list
            .iter()
            .map(|(name, s, e, p)| {
                let parent = p.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{name}\",\"start_ns\":{s},\"end_ns\":{e},\"parent\":{parent}}}"
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

fn level_json(s: &LevelStats) -> String {
    format!(
        "\"{}\":{{\"loads\":{},\"stores\":{},\"load_hits\":{},\"load_misses\":{},\"store_hits\":{},\"store_misses\":{},\"writebacks_out\":{},\"fills\":{},\"bytes_loaded\":{},\"bytes_stored\":{}}}",
        s.name, s.loads, s.stores, s.load_hits, s.load_misses, s.store_hits, s.store_misses,
        s.writebacks_out, s.fills, s.bytes_loaded, s.bytes_stored
    )
}

fn memory_json(m: &CountingMemory) -> String {
    format!(
        "\"MEM\":{{\"loads\":{},\"stores\":{},\"bytes_loaded\":{},\"bytes_stored\":{}}}",
        m.loads, m.stores, m.bytes_loaded, m.bytes_stored
    )
}

fn open(path: &Path) -> Result<TraceReader<impl std::io::Read>, String> {
    TraceReader::open(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Replay the trace into `sink` through chunked delivery, the path
/// `memsim replay` takes. Returns events delivered.
fn walk(path: &Path, sink: &mut dyn TraceSink) -> Result<u64, String> {
    replay_into(&mut open(path)?, sink).map_err(|e| format!("{}: {e}", path.display()))
}

/// One sequential rung: the first `depth` levels over `memory`.
fn rung<M: MainMemory>(
    path: &Path,
    levels: &[Cache],
    depth: usize,
    memory: M,
) -> Result<Hierarchy<M>, String> {
    let mut h = Hierarchy::new(levels[..depth].to_vec(), memory);
    walk(path, &mut h)?;
    h.assert_consistent();
    Ok(h)
}

fn stats<M: MainMemory>(h: &Hierarchy<M>) -> Vec<LevelStats> {
    h.levels().iter().map(Cache::stats).collect()
}

fn layers(a: &Args) -> Result<String, String> {
    let dir = a.dir.as_deref().ok_or("layers needs --dir")?;
    let trace = dir.join("ladder.trace");
    let scale = scale(a.class);
    let full = Design::Nmm {
        nvm: Technology::Pcm,
        config: n_by_name("N6").expect("N6 is a Table 3 row"),
    }
    .structure(&scale);
    let levels = caches(&scale, &full);

    let mut spans = Spans::new();
    let mut refs = 0u64;
    let mut events = 0u64;
    let mut file_bytes = 0u64;
    let mut counts = String::new();
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let mut round = 0;
    spans.enter("ladder");
    while round < MIN_ROUNDS || start.elapsed() < budget {
        spans.enter(&format!("round{round}"));

        spans.enter("workloads.build");
        let mut w = build(a);
        spans.exit();
        let mut sink = CountingSink::new();
        spans.enter("workloads.emit");
        w.run(&mut sink);
        spans.exit();
        w.verify()?;
        refs = sink.total();
        drop(w);

        spans.enter("tracefile.record");
        (events, file_bytes) = record(a, &trace)?;
        spans.exit();

        spans.enter("tracefile.decode");
        let mut decoded = CountingSink::new();
        walk(&trace, &mut decoded)?;
        spans.exit();
        if decoded.total() != events || events != refs {
            return Err(format!(
                "stream sizes disagree: emitted {refs}, recorded {events}, decoded {}",
                decoded.total()
            ));
        }

        let mut rungs = Vec::new();
        for (depth, name) in [(1, "L1"), (2, "L2"), (3, "L3"), (4, "L4")] {
            spans.enter(&format!("cache.rung.{name}"));
            let h = rung(&trace, &levels, depth, CountingMemory::default())?;
            spans.exit();
            rungs.push(h);
        }

        let regions = open(&trace)?.header().regions.clone();
        spans.enter("memory.rung.partitioned");
        let part = rung(
            &trace,
            &levels,
            levels.len(),
            PartitionedMemory::new(&regions, Technology::Pcm),
        )?;
        spans.exit();

        spans.enter("cache.per_event.L3");
        let mut per_event = Hierarchy::new(levels[..3].to_vec(), CountingMemory::default());
        let mut reader = open(&trace)?;
        while let Some(chunk) = reader.next_chunk().map_err(|e| e.to_string())? {
            for &ev in chunk {
                per_event.access(ev);
            }
        }
        per_event.flush();
        spans.exit();

        spans.enter("cache.sharded2.L4");
        let mut sharded = ShardedHierarchy::new(levels.clone(), CountingMemory::default(), 2, None);
        walk(&trace, &mut sharded)?;
        let sharded = sharded.finish();
        spans.exit();

        spans.exit();
        round += 1;

        // Every walk of one stream must agree on the counts it shares.
        let full_rung = &rungs[3];
        if stats(&rungs[2]) != stats(&per_event) || rungs[2].memory() != per_event.memory() {
            return Err("per-event and chunked 3-level walks disagree".into());
        }
        if stats(full_rung) != stats(&part) || stats(full_rung) != sharded.levels {
            return Err("full-hierarchy walks disagree across terminals or engines".into());
        }
        if *full_rung.memory() != sharded.memory {
            return Err("sharded terminal memory disagrees with the sequential walk".into());
        }
        let mem = part.memory().dram_stats();
        let counting = full_rung.memory();
        if (mem.loads, mem.stores, mem.bytes_loaded, mem.bytes_stored)
            != (
                counting.loads,
                counting.stores,
                counting.bytes_loaded,
                counting.bytes_stored,
            )
        {
            return Err("PartitionedMemory and CountingMemory saw different traffic".into());
        }
        counts.clear();
        for (label, h) in [
            (Structure::ThreeLevel.obs_label(), &rungs[2]),
            (full.obs_label(), full_rung),
        ] {
            let lv: Vec<String> = stats(h).iter().map(level_json).collect();
            let _ = write!(
                counts,
                "{}\"{label}\":{{{},{}}}",
                if counts.is_empty() { "" } else { "," },
                lv.join(","),
                memory_json(h.memory())
            );
        }
    }
    spans.exit();
    let _ = std::fs::remove_file(&trace);

    Ok(format!(
        "{{\"workload\":\"{}\",\"class\":\"{}\",\"seed\":{},\"rounds\":{round},\"refs\":{refs},\"events\":{events},\"file_bytes\":{file_bytes},\"full_label\":\"{}\",\"counts\":{{{counts}}},\"spans\":{}}}",
        a.workload.name(),
        a.class.name(),
        a.seed,
        full.obs_label(),
        spans.json()
    ))
}
