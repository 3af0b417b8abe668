//! Run one command and report its own wall time, CPU time and peak RSS.
//!
//! ```text
//! measure --stdout FILE --stderr FILE -- memsim replay amg.trace --json
//! ```
//!
//! Prints `{"code":C,"wall_s":W,"cpu_s":U,"maxrss_kib":R}`. perfbench/run.py
//! spawns commands through this small process rather than directly: Linux
//! carries a parent's resident set into the peak RSS of a child it spawns,
//! so a direct child of the Python interpreter could never read below its
//! ~14 MiB.

use std::fs::File;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("measure reads the 64-bit Linux `struct rusage` layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("measure: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let usage = "usage: measure --stdout FILE --stderr FILE -- PROGRAM [ARGS...]";
    let sep = args.iter().position(|a| a == "--").ok_or(usage)?;
    let (flags, argv) = (&args[..sep], &args[sep + 1..]);
    let (program, program_args) = argv.split_first().ok_or(usage)?;
    let file = |name: &str| -> Result<File, String> {
        let i = flags.iter().position(|f| f == name).ok_or(usage)?;
        let path = flags.get(i + 1).ok_or(usage)?;
        File::create(path).map_err(|e| format!("{path}: {e}"))
    };
    let (out, err) = (file("--stdout")?, file("--stderr")?);

    let start = Instant::now();
    let status = Command::new(program)
        .args(program_args)
        .stdout(out)
        .stderr(err)
        .status()
        .map_err(|e| format!("{program}: {e}"))?;
    let wall = start.elapsed().as_secs_f64();

    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value with the layout of the
    // 64-bit Linux `struct rusage` (checked by the cfg above), and
    // getrusage writes only within that struct.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) } != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    // The only child this process has waited for is `program`, so the
    // children's totals are its own.
    println!(
        "{{\"code\":{},\"wall_s\":{wall:e},\"cpu_s\":{:e},\"maxrss_kib\":{}}}",
        status.code().unwrap_or(-1),
        secs(&ru.utime) + secs(&ru.stime),
        ru.maxrss
    );
    Ok(())
}
