//! Time a fixed kernel that stands for the host's current speed.
//!
//! ```text
//! calibrate --reps 3
//! ```
//!
//! Prints the median of `reps` timings, in seconds, of a pointer chase
//! over a 1 MiB working set that stays in the core's L2 cache, with a
//! store per step. On a shared host, a neighbour on the same core slows
//! this kernel by about as much as it slows the simulator (both are
//! bound by L1/L2 latency), while the kernel itself never changes, so
//! perfbench/run.py divides the program's times by it to take the host's
//! share out of them.

use std::process::ExitCode;
use std::time::Instant;

/// Working set: one 64-byte line per chase slot.
const LINES: usize = (1 << 20) / 64;
const STEPS: usize = 5_000_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps = match args.as_slice() {
        [flag, n] if flag == "--reps" => n.parse::<usize>().ok().filter(|&n| n > 0),
        _ => None,
    };
    let Some(reps) = reps else {
        eprintln!("usage: calibrate --reps N");
        return ExitCode::FAILURE;
    };

    // A single cycle through every slot (Sattolo's shuffle), from a fixed
    // xorshift seed, so every run chases the same order.
    let mut order: Vec<u32> = (0..LINES as u32).collect();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in (1..LINES).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % i as u64) as usize);
    }
    let mut next = vec![0u32; LINES];
    for i in 0..LINES {
        next[order[i] as usize] = order[(i + 1) % LINES];
    }
    let mut lines = vec![0u64; LINES * 8];

    let mut times = Vec::with_capacity(reps);
    let mut at = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..STEPS {
            lines[at * 8] = lines[at * 8].wrapping_add(1);
            at = next[at] as usize;
        }
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    // Keeps the stores observable, so the loop is not optimised away.
    let checksum: u64 = lines.iter().sum();
    println!(
        "{{\"seconds\":{:e},\"checksum\":{checksum}}}",
        times[reps / 2]
    );
    ExitCode::SUCCESS
}
