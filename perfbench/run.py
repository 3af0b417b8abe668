#!/usr/bin/env python3
"""memsim benchmark: end-to-end runs of the `memsim` CLI and a per-layer ladder.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload replay_amg --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn

It builds `memsim` and the ladder (perfbench/ladder) with cargo, then:

* `--trace 0` sets the workload up several times (median = `setup_s`) and
  invokes its `memsim` command back to back for `--seconds`, reporting the
  median wall time, represented Mrefs/s, child CPU time and child peak RSS,
  with every time scaled to a reference host speed (below);
* `--trace 1` runs the per-layer ladder on the workload's stream plus the
  CLI probes (metrics export, sampling plan, trace-out overhead) and
  cross-checks the ladder's per-level counts against `memsim replay
  --metrics-out` on the same trace.

Every CLI output is checked (exit code, byte-identical `--json` against
perfbench/expected, sharded = sequential, sampled inside its CI of the full
walk); `failed`/`attempted` count the checks, and fail_ratio is their
quotient. The last stdout line is the JSON result. Spans and a host stamp
are written to .bench_results/ in the checkout.

Workloads run at the `mini` scale: at `demo` scale one invocation takes
8-15 s on a 2-core host, too long to take a median of many invocations in
each run within the benchmark's time budget.

BENCHMARK.json gates replay_amg and sampled_hash only. live_cg, the live
`memsim run` path, stays here for manual runs: on a shared 2-vCPU host its
single-threaded, cache-miss-bound walk drifts with the neighbours' load
(run medians 0.45-0.85 s over an hour), so the median of ten runs spreads
past any bound of at most 25% (measured before the calibration below was
added, which was not tried on it). Its layers (kernel emission, the
L2/L3/L4 miss walk, `run` phases) are still timed by every `--trace 1` run.

replay_amg times the sequential engine. The 2-shard engine runs a decode
thread and two shard threads on the host's two vCPUs, and its wall time
then measures the host's scheduler: 33% spread per invocation against 11%
for the sequential walk of the same trace, at the same CPU time spread
(6%). Set-up checks that `--shards 2` prints the same result, and the
ladder times the sharded engine (cache.sharded2_ns_per_ref).

Times are scaled to a reference host speed. On a shared host a neighbour
on the same core slows the simulator by up to a third for minutes at a
time (replay_amg run medians 2.40 s in one set of ten runs, 1.60 s in the
next, same code), which no run length averages away. So `--trace 0` times
a fixed kernel (perfbench/ladder/src/bin/calibrate.rs, an L2-resident
pointer chase that such a neighbour slows about as much) before each
set-up and after each invocation, and reports every time multiplied by
CAL_REF_S / (median kernel time in the run): the seconds the run would
have taken with the kernel at its reference speed. The raw medians and
the kernel's median are printed beside them and kept in the result file.

The expected outputs were written with the default seed by:

    memsim run --workload cg --design nmm --config N6 --scale mini --json
    memsim record amg -o amg.trace --scale mini --json
    memsim replay amg.trace --scale mini --threads 1 --shards seq --json
    memsim-perfbench-ladder record --workload hash --class mini --seed 19028 --out hash.trace
    memsim replay hash.trace --scale mini --threads 2 --json
    memsim replay hash.trace --scale mini --sample interval=131072,clusters=8 --threads 2 --json

each run in a directory holding the trace, so the `trace` field is relative.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
EXPECTED = os.path.join(BENCH, "expected")
RUNS = os.path.join(ROOT, ".bench_runs")
RESULTS = os.path.join(ROOT, ".bench_results")

SCALE = "mini"
# The seed the program's Hash preset uses, so the default-seed trace is the
# one `memsim record hash` writes and the expected outputs apply to it.
DEFAULT_SEED = 0x4A54
# One representative interval per cluster; 131072-event intervals give the
# mini Hash stream 65 intervals for 8 clusters, the ratio `--sample on`
# (1M-event intervals) gives the demo stream.
SAMPLE_SPEC = "interval=131072,clusters=8"
SETUP_REPS = 3
# The calibration kernel's median time on the 2-vCPU Xeon host the
# benchmark was written on, while no neighbour loaded its core; each
# calibration takes the median of CAL_REPS timings.
CAL_REF_S = 0.0226
CAL_REPS = 3
INVOKE_TIMEOUT_S = 150
TRACE_OUT_PAIRS = 6
LEVEL_FIELDS = ("loads", "stores", "load_hits", "load_misses", "store_hits",
                "store_misses", "writebacks_out", "fills", "bytes_loaded", "bytes_stored")
MEM_FIELDS = ("loads", "stores", "bytes_loaded", "bytes_stored")

# Each workload stresses different layers (see BENCHMARK.json `why`).
# `structures` is how many cache structures the command walks per event:
# `run` walks the 3-level baseline and the design; `replay` walks the
# default design set, whose five designs share three structures.
WORKLOADS = {
    "live_cg": {"stream": "cg", "structures": 2},
    "replay_amg": {"stream": "amg", "structures": 3},
    "sampled_hash": {"stream": "hash", "structures": 3},
}

# Which end-to-end metric each per-layer metric should move, on which
# workload. Set-up records the replayed streams, so it runs the kernels.
LAYER_MAP = {
    "workloads.build_s": [("wall_s", "live_cg"), ("setup_s", "replay_amg"), ("setup_s", "sampled_hash")],
    "workloads.emit_ns_per_ref": [("wall_s", "live_cg"), ("setup_s", "replay_amg"), ("setup_s", "sampled_hash")],
    "workloads.refs": [("wall_s", "live_cg"), ("setup_s", "replay_amg"), ("setup_s", "sampled_hash")],
    "tracefile.decode_ns_per_event": [("wall_s", "replay_amg"), ("wall_s", "sampled_hash")],
    "tracefile.bytes_per_event": [("setup_s", "replay_amg"), ("setup_s", "sampled_hash")],
    "tracefile.record_s": [("setup_s", "replay_amg"), ("setup_s", "sampled_hash")],
    "cache.L1.ns_per_ref": [("wall_s", "replay_amg")],
    "cache.L2.ns_per_ref": [("wall_s", "live_cg"), ("wall_s", "sampled_hash")],
    "cache.L3.ns_per_ref": [("wall_s", "live_cg"), ("wall_s", "sampled_hash")],
    "cache.L4.ns_per_ref": [("wall_s", "live_cg"), ("wall_s", "sampled_hash")],
    "cache.L4.writebacks": [("wall_s", "sampled_hash")],
    "cache.chunked_ns_per_ref": [("wall_s", "live_cg")],
    "cache.per_event_ns_per_ref": [("wall_s", "live_cg")],
    # No gated workload times the sharded engine (see the module docs).
    "cache.sharded2_ns_per_ref": [],
    "cache.shard_speedup": [],
    "memory.ns_per_ref": [("wall_s", "live_cg"), ("wall_s", "sampled_hash")],
    "memory.accesses": [("wall_s", "live_cg"), ("wall_s", "sampled_hash")],
    "sampling.plan_s": [("setup_s", "sampled_hash")],
    "sampling.simulated_frac": [("wall_s", "sampled_hash")],
    "sampling.err_pct": [("accuracy", "sampled_hash")],
    "phase.simulate_s": [("wall_s", "live_cg")],
    "obs.trace_out_overhead_pct": [("none by default", "live_cg")],
}


class Failure(Exception):
    """The benchmark cannot run here (no sources, build failed)."""


class Checks:
    """Counts output checks; every failed one is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


class Spans:
    """Spans around each call into the program: name, start, end, parent."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.list = []
        self.open = []

    def now_ns(self):
        return int((time.perf_counter() - self.t0) * 1e9)

    def enter(self, name):
        parent = self.open[-1] if self.open else None
        self.list.append({"name": name, "start_ns": self.now_ns(), "end_ns": None, "parent": parent})
        self.open.append(len(self.list) - 1)

    def exit(self):
        span = self.list[self.open.pop()]
        span["end_ns"] = self.now_ns()
        return (span["end_ns"] - span["start_ns"]) * 1e-9

    def adopt(self, child_spans):
        """Nest spans recorded by a child process under the open span."""
        base = len(self.list)
        parent = self.open[-1]
        offset = self.list[parent]["start_ns"]
        for s in child_spans:
            self.list.append({
                "name": s["name"],
                "start_ns": offset + s["start_ns"],
                "end_ns": offset + s["end_ns"],
                "parent": parent if s["parent"] is None else base + s["parent"],
            })


class Invocation:
    def __init__(self, code, stdout, stderr, wall, cpu, rss_mib):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.wall, self.cpu, self.rss_mib = wall, cpu, rss_mib

    def json(self):
        return json.loads(self.stdout)


def invoke(measure, argv, cwd, env):
    """Run argv to completion through the `measure` helper, which reports
    the child's own wall time, CPU time and peak RSS. Output goes through
    files, so no pipe fills."""
    out_path, err_path = os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr")
    proc = subprocess.Popen([measure, "--stdout", out_path, "--stderr", err_path, "--", *argv],
                            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        report, err = proc.communicate(timeout=INVOKE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return Invocation(-1, b"", b"timed out", INVOKE_TIMEOUT_S, 0.0, 0.0)
    try:
        r = json.loads(report)
    except ValueError:
        return Invocation(-1, b"", err, 0.0, 0.0, 0.0)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read()
    return Invocation(r["code"], stdout, stderr, r["wall_s"], r["cpu_s"], r["maxrss_kib"] / 1024.0)


class Bench:
    def __init__(self, args, workload):
        self.args = args
        self.workload = workload
        self.checks = Checks()
        self.spans = Spans()
        self.run_dir = os.path.join(RUNS, f"{workload}-seed{args.seed}-pid{os.getpid()}")
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
        target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
        self.memsim = os.path.join(target, "release", "memsim")
        self.ladder = os.path.join(target, "release", "memsim-perfbench-ladder")
        self.measure = os.path.join(target, "release", "measure")
        self.calibrate_bin = os.path.join(target, "release", "calibrate")
        self.calibrations = []
        self.env = dict(os.environ, CARGO_TARGET_DIR=target)
        self.dirs = 0

    # ---- environment -------------------------------------------------

    def build(self):
        if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
                and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
            raise Failure(f"no memsim sources under {ROOT}")
        for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "memsim-cli"],
                    ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
                     os.path.join(BENCH, "ladder", "Cargo.toml")]):
            self.spans.enter("build")
            r = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr)
            self.spans.exit()
            if r.returncode != 0:
                raise Failure(f"build failed: {' '.join(cmd)}")

    def fresh_dir(self):
        """A new private directory with its own TMPDIR: plan sidecars and
        auto-recorded traces are never shared across runs or set-ups."""
        self.dirs += 1
        d = os.path.join(self.run_dir, f"d{self.dirs}")
        os.makedirs(os.path.join(d, "tmp"))
        return d

    def child_env(self, d):
        return dict(self.env, TMPDIR=os.path.join(d, "tmp"))

    def calibrate(self):
        """Time the calibration kernel once and keep the result."""
        self.spans.enter("calibrate")
        try:
            r = subprocess.run([self.calibrate_bin, "--reps", str(CAL_REPS)], capture_output=True,
                               timeout=INVOKE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise Failure("calibrate timed out")
        self.spans.exit()
        try:
            seconds = json.loads(r.stdout)["seconds"]
        except (ValueError, KeyError):
            seconds = 0.0
        if r.returncode != 0 or not seconds > 0:
            raise Failure(f"calibrate failed: {r.stderr[-500:]!r}")
        self.calibrations.append(seconds)

    def stamp(self):
        def cmd_out(argv):
            try:
                return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True).stdout.strip()
            except OSError:
                return ""
        cpu = ""
        try:
            with open("/proc/cpuinfo") as f:
                cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
        except OSError:
            pass
        digest = hashlib.sha256()
        files = sorted(glob.glob(os.path.join(ROOT, "crates", "**", "*.rs"), recursive=True)
                       + glob.glob(os.path.join(ROOT, "crates", "*", "Cargo.toml"))
                       + [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")])
        for path in files:
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        return {
            "host": platform.node(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "rustc": cmd_out(["rustc", "--version"]),
            "commit": cmd_out(["git", "rev-parse", "HEAD"]) or "unknown",
            "source_sha256": digest.hexdigest(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seed": self.args.seed,
            "workload": self.workload,
            "scale": SCALE,
        }

    # ---- checked invocations -----------------------------------------

    def call(self, name, argv, d):
        self.spans.enter(name)
        inv = invoke(self.measure, argv, d, self.child_env(d))
        self.spans.exit()
        self.checks.check(inv.code == 0, f"{name} exited {inv.code}: {inv.stderr[-500:]!r}")
        return inv

    def check_expected(self, inv, name):
        """Byte-compare `--json` output with the stored output for the
        default seed; other seeds change the Hash stream, so its outputs too."""
        if self.workload == "sampled_hash" and self.args.seed != DEFAULT_SEED:
            return
        with open(os.path.join(EXPECTED, name + ".json"), "rb") as f:
            want = f.read()
        self.checks.check(inv.stdout == want, f"{name} output differs from expected/{name}.json")

    def check_in_ci(self, sampled, full):
        """Each design's sampled AMAT and energy lie inside the CI the
        sampled run reports, around the full-fidelity reference; returns
        the largest relative error in percent."""
        try:
            s, f = sampled.json(), full.json()
            worst, inside = 0.0, True
            for a, b in zip(s["results"], f["results"], strict=True):
                inside &= a["design"] == b["design"]
                ci = a.get("ci_halfwidth")
                for metric, key in (("amat_ns", "amat"), ("energy_j", "energy")):
                    err = abs(a["metrics"][metric] / b["metrics"][metric] - 1.0)
                    worst = max(worst, err)
                    if ci is not None:
                        inside &= err <= ci[key]
        except (ValueError, KeyError, ZeroDivisionError):
            worst, inside = float("nan"), False
        self.checks.check(inside, "sampled result outside its reported CI of the full walk")
        return 100.0 * worst

    def replay_cmd(self, trace, *extra):
        return [self.memsim, "replay", trace, "--scale", SCALE, *extra, "--json"]

    def timed_cmd(self):
        w = self.workload
        if w == "live_cg":
            return [self.memsim, "run", "--workload", "cg", "--design", "nmm", "--config", "N6",
                    "--scale", SCALE, "--json"]
        if w == "replay_amg":
            return self.replay_cmd("amg.trace", "--threads", "1", "--shards", "seq")
        return self.replay_cmd("hash.trace", "--sample", SAMPLE_SPEC, "--threads", "2")

    def record_stream(self, d, stream):
        """Write the workload's stream to d/<stream>.trace: Hash through the
        ladder (the CLI cannot seed it), the others through `memsim record`."""
        if stream == "hash":
            argv = [self.ladder, "record", "--workload", "hash", "--class", SCALE,
                    "--seed", str(self.args.seed), "--out", "hash.trace"]
        else:
            argv = [self.memsim, "record", stream, "-o", f"{stream}.trace", "--scale", SCALE, "--json"]
        inv = self.call(f"record.{stream}", argv, d)
        if stream == "amg":
            self.check_expected(inv, "replay_amg.record")
        return inv

    # ---- end-to-end run ----------------------------------------------

    def setup(self):
        """One set-up: a private directory, the workload's inputs, and one
        untimed warm-up invocation (which, for sampled_hash, writes the
        sampling plan sidecar). Returns (dir, full-walk reference, warm-up)."""
        w = self.workload
        d = self.fresh_dir()
        reference = None
        if w == "replay_amg":
            self.record_stream(d, "amg")
        elif w == "sampled_hash":
            self.record_stream(d, "hash")
            reference = self.call("replay.full", self.replay_cmd("hash.trace", "--threads", "2"), d)
            self.check_expected(reference, "sampled_hash.full")
        warmup = self.call("warmup", self.timed_cmd(), d)
        self.check_output(warmup, reference)
        return d, reference, warmup

    def check_output(self, inv, reference):
        self.check_expected(inv, self.workload)
        if reference is not None:
            self.check_in_ci(inv, reference)

    def end_to_end(self):
        w = self.workload
        setup_s = []
        d = None
        for rep in range(SETUP_REPS):
            if d is not None:
                shutil.rmtree(d)
            self.calibrate()
            self.spans.enter(f"setup{rep}")
            d, reference, warmup = self.setup()
            setup_s.append(self.spans.exit())

        if w == "replay_amg":
            sharded = self.call("replay.sharded2", self.replay_cmd("amg.trace", "--threads", "1", "--shards", "2"), d)
            self.checks.check(sharded.stdout == warmup.stdout, "--shards 2 output differs from --shards seq")

        runs = []
        self.spans.enter("measure")
        t0 = time.perf_counter()
        while not runs or time.perf_counter() - t0 < self.args.seconds:
            inv = self.call("invoke", self.timed_cmd(), d)
            self.check_output(inv, reference)
            runs.append(inv)
            self.calibrate()
        self.spans.exit()

        refs = []
        for inv in runs:
            try:
                doc = inv.json()
                refs.append(doc["total_refs"] if w == "live_cg" else doc["events"])
            except (ValueError, KeyError):
                refs.append(0)
        represented = [WORKLOADS[w]["structures"] * r for r in refs]
        med = statistics.median
        raw = {
            "wall_s": med(i.wall for i in runs),
            "mrefs_per_s": med(r / i.wall / 1e6 for r, i in zip(represented, runs)),
            "cpu_s": med(i.cpu for i in runs),
            "setup_s": med(setup_s),
        }
        calibration_s = med(self.calibrations)
        scale = CAL_REF_S / calibration_s
        return {
            "wall_s": (raw["wall_s"] * scale, "s"),
            "mrefs_per_s": (raw["mrefs_per_s"] / scale, "Mref/s"),
            "cpu_s": (raw["cpu_s"] * scale, "s"),
            "peak_rss_mib": (med(i.rss_mib for i in runs), "MiB"),
            "setup_s": (raw["setup_s"] * scale, "s"),
        }, {"invocations": len(runs), "setups": len(setup_s), "raw": raw,
            "calibration_s": calibration_s, "calibrations": self.calibrations,
            "walls_s": [i.wall for i in runs]}

    # ---- traced per-layer run ----------------------------------------

    def traced(self):
        w = self.workload
        stream = WORKLOADS[w]["stream"]
        d = self.fresh_dir()
        m = {}

        # The ladder: every layer timed on this workload's stream.
        self.spans.enter("ladder")
        inv = self.call("ladder.layers", [self.ladder, "layers", "--workload", stream, "--class", SCALE,
                                          "--seed", str(self.args.seed), "--seconds",
                                          str(self.args.seconds), "--dir", d], d)
        ladder = json.loads(inv.stdout) if inv.code == 0 else None
        if ladder is not None:
            self.spans.adopt(ladder["spans"])
        self.spans.exit()
        if ladder is None:
            return m, {}

        # Seconds per round of each timed step, from the ladder's spans.
        sec = {}
        for span in ladder["spans"]:
            sec.setdefault(span["name"], []).append((span["end_ns"] - span["start_ns"]) * 1e-9)
        events = ladder["events"]
        med = statistics.median

        def ns(name):
            return med(sec[name]) / events * 1e9

        # Rungs are compared within a round (they ran back to back), which
        # cancels drift in host speed between rounds.
        def diff_ns(upper, lower):
            return med(u - l for u, l in zip(sec[upper], sec[lower])) / events * 1e9

        full = ladder["counts"][ladder["full_label"]]
        m["workloads.build_s"] = (med(sec["workloads.build"]), "s")
        m["workloads.emit_ns_per_ref"] = (med(sec["workloads.emit"]) / ladder["refs"] * 1e9, "ns")
        m["workloads.refs"] = (ladder["refs"], "count")
        m["tracefile.decode_ns_per_event"] = (ns("tracefile.decode"), "ns")
        m["tracefile.bytes_per_event"] = (ladder["file_bytes"] / events, "B")
        m["tracefile.record_s"] = (med(sec["tracefile.record"]), "s")
        below = "tracefile.decode"
        for level in ("L1", "L2", "L3", "L4"):
            rung = f"cache.rung.{level}"
            m[f"cache.{level}.ns_per_ref"] = (diff_ns(rung, below), "ns")
            below = rung
            st = full[level]
            accesses = st["loads"] + st["stores"]
            m[f"cache.{level}.accesses"] = (accesses, "count")
            m[f"cache.{level}.hit_ratio"] = ((st["load_hits"] + st["store_hits"]) / accesses, "ratio")
            m[f"cache.{level}.writebacks"] = (st["writebacks_out"], "count")
        m["cache.chunked_ns_per_ref"] = (ns("cache.rung.L3"), "ns")
        m["cache.per_event_ns_per_ref"] = (ns("cache.per_event.L3"), "ns")
        m["cache.sharded2_ns_per_ref"] = (ns("cache.sharded2.L4"), "ns")
        m["cache.shard_speedup"] = (med(seq / par for seq, par in zip(sec["cache.rung.L4"], sec["cache.sharded2.L4"])), "x")
        m["memory.ns_per_ref"] = (diff_ns("memory.rung.partitioned", "cache.rung.L4"), "ns")
        m["memory.accesses"] = (full["MEM"]["loads"] + full["MEM"]["stores"], "count")

        # The program on the same stream: its counters must equal the ladder's.
        self.spans.enter("program")
        self.record_stream(d, stream)
        trace = f"{stream}.trace"
        metrics_out = os.path.join(d, "replay.metrics.json")
        full_run = self.call("replay.full", self.replay_cmd(trace, "--threads", "1", "--shards", "seq",
                                                            "--metrics-out", metrics_out), d)
        self.cross_check(ladder, metrics_out)

        # Sampling layer: plan cost (cold minus warm sidecar) and the share
        # of events the sampled walk simulates.
        plan_s, sampled = [], None
        sample_metrics = os.path.join(d, "sample.metrics.json")
        cmd = self.replay_cmd(trace, "--sample", SAMPLE_SPEC, "--threads", "2", "--metrics-out", sample_metrics)
        for rep in range(SETUP_REPS):
            cold_dir = d if rep == 0 else self.fresh_dir()
            if rep:
                os.link(os.path.join(d, trace), os.path.join(cold_dir, trace))
            cold = self.call("sample.cold", cmd, cold_dir)
            warm = self.call("sample.warm", cmd, cold_dir)
            self.checks.check(cold.stdout == warm.stdout, "sampled output changed once the plan was cached")
            plan_s.append(cold.wall - warm.wall)
            sampled = warm
        counters = self.load_json(sample_metrics).get("counters", {})
        m["sampling.plan_s"] = (med(plan_s), "s")
        m["sampling.simulated_frac"] = (
            counters.get("sample.events_simulated", 0) / max(1, counters.get("sample.events_total", 0)), "ratio")
        m["sampling.err_pct"] = (self.check_in_ci(sampled, full_run), "%")

        # Phases of the live run, from the program's own span export.
        run_cmd = [self.memsim, "run", "--workload", stream, "--design", "nmm", "--config", "N6",
                   "--scale", SCALE, "--json"]
        phase_metrics = os.path.join(d, "run.metrics.json")
        self.call("run.metrics", run_cmd + ["--metrics-out", phase_metrics], d)
        phases = {}
        for node in self.load_json(phase_metrics).get("spans", {}).get("sim", {}).get("children", {}).values():
            for structure in node["children"].values():
                for name, span in structure["children"].items():
                    phases[name] = phases.get(name, 0.0) + span["wall_ns"] * 1e-9
        for name in ("generate", "simulate", "drain", "verify"):
            self.checks.check(name in phases, f"run --metrics-out has no '{name}' phase")
            m[f"phase.{name}_s"] = (phases.get(name, 0.0), "s")

        # Flight-recorder overhead on the live run, in alternating pairs.
        plain, recorded = [], []
        for _ in range(TRACE_OUT_PAIRS):
            plain.append(self.call("run.plain", run_cmd, d).wall)
            recorded.append(self.call("run.trace_out", run_cmd + ["--trace-out", os.path.join(d, "t.json")], d).wall)
        m["obs.trace_out_overhead_pct"] = ((med(r / p for r, p in zip(recorded, plain)) - 1.0) * 100.0, "%")
        self.spans.exit()
        return m, {"ladder_rounds": ladder["rounds"], "layer_map": LAYER_MAP}

    def load_json(self, path):
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, ValueError):
            self.checks.check(False, f"cannot read {os.path.basename(path)}")
            return {}

    def cross_check(self, ladder, metrics_out):
        """The ladder's per-level counts equal `memsim replay`'s
        replay.<label>.<level>.* counters on the same trace."""
        counters = self.load_json(metrics_out).get("counters", {})
        for label, levels in ladder["counts"].items():
            for level, stats in levels.items():
                fields = MEM_FIELDS if level == "MEM" else LEVEL_FIELDS
                for field in fields:
                    key = f"replay.{label}.{level}.{field}"
                    self.checks.check(counters.get(key) == stats[field],
                                      f"ladder {label}.{level}.{field}={stats[field]} but {key}={counters.get(key)}")

    # ---- one run -----------------------------------------------------

    def run(self):
        self.build()
        os.makedirs(self.run_dir)
        try:
            self.spans.enter(f"{self.workload}.trace{self.args.trace}")
            metrics, info = self.traced() if self.args.trace else self.end_to_end()
            self.spans.exit()
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            try:
                os.rmdir(RUNS)
            except OSError:
                pass
        return metrics, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not 0 < args.seconds < 3600:
        ap.error("--seconds must be in (0, 3600)")

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    results = {}
    for workload in workloads:
        bench = Bench(args, workload)
        try:
            metrics, info = bench.run()
        except Failure as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        stamp = bench.stamp()
        checks = bench.checks
        fail_ratio = checks.failed / max(1, checks.attempted)
        attempted += checks.attempted
        failed += checks.failed

        print("STAMP " + json.dumps(stamp, sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"{workload:13s} {name:32s} {value:14.6g} {unit}")
        for name, value in info.get("raw", {}).items():
            print(f"{workload:13s} {'raw.' + name:32s} {value:14.6g} (unscaled)")
        if "calibration_s" in info:
            print(f"{workload:13s} {'calibration_s':32s} {info['calibration_s']:14.6g} s "
                  f"(reference {CAL_REF_S})")
        print(f"{workload:13s} {'fail_ratio':32s} {fail_ratio:14.6g} ratio "
              f"({checks.failed} of {checks.attempted} checks failed)")

        prefix = f"{workload}." if args.workload == "all" else ""
        results.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        os.makedirs(RESULTS, exist_ok=True)
        result_file = os.path.join(RESULTS, f"{workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json")
        with open(result_file, "w") as f:
            json.dump({"stamp": stamp, "info": info, "fail_ratio": fail_ratio,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                       "spans": bench.spans.list}, f)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
