#!/usr/bin/env python3
"""The repository benchmark: `repro` end to end, plus a traced per-layer replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seconds S] [--trace 0|1]   # every workload in turn
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --write-reference

Run from the root of a checkout. The script builds `repro` and the tracer
(`perfbench/tracer`) into `$CARGO_TARGET_DIR` (default `.bench_build`), works
in `.bench_work/`, and prints one JSON result object as its last stdout line.

With `--trace 0` it spawns the real `repro` binary on the workload over and
over for `--seconds`, reads wall time, CPU time and max RSS of every process
from the OS, hashes every artifact against `perfbench/reference/digests.json`
and reports the medians. With `--trace 1` it runs the workload once untraced,
then the in-process tracer, and reports the per-layer metrics. See
`perfbench/README.md` for the workloads, the metrics and the layers they
belong to.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
REFERENCE = BENCH_DIR / "reference" / "digests.json"
WORK = ROOT / ".bench_work"
# Span logs of the latest traced run of each workload (kept after exit).
TRACES = ROOT / ".bench_trace"
TARGET = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
if not TARGET.is_absolute():
    TARGET = ROOT / TARGET
REPRO = TARGET / "release" / "repro"
TRACER = TARGET / "release" / "perfbench-tracer"
CALIBRATOR = TARGET / "release" / "perfbench-calibrate"

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Every run spawns at most 2 compute threads in total (the host has 2 cores).
THREADS = "2"
# A single process, or a whole fleet, that has not finished by then has hung.
REP_TIMEOUT_S = 60.0
# Timed repetitions per run, at least; more while `--seconds` lasts.
MIN_REPS = 3
# Spawn-to-first-work samples per run.
SETUP_PROBES = 30
# A repetition during which the hypervisor stole more than this share of the
# vCPUs' time measures the neighbours, not the program: its times are left
# out when enough uncontended repetitions remain.
STEAL_LIMIT = 0.05
NCPU = len(os.sched_getaffinity(0))
# CPU seconds the calibration kernel (perfbench/tracer/src/bin) takes on the
# reference host; `wall_s` and `cpu_s` are scaled to that speed.
CAL_REF_S = 0.05


class BenchError(Exception):
    """A failure that stops the run without a result line."""


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------


class Proc:
    """A spawned process whose stdout lines are timestamped as they arrive and
    whose exit is reaped with `wait4`, so its rusage is its own."""

    def __init__(self, args, log, wake):
        self.wake = wake
        self.lines = []
        self.rusage = None
        self.status = None
        self.t_exit = None
        self.stderr = open(log, "wb")
        self.t_spawn = time.perf_counter()
        self.popen = subprocess.Popen(
            [str(a) for a in args], cwd=ROOT, stdout=subprocess.PIPE, stderr=self.stderr
        )
        self.pid = self.popen.pid
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.waiter = threading.Thread(target=self._wait, daemon=True)
        self.reader.start()
        self.waiter.start()

    def _read(self):
        for raw in self.popen.stdout:
            now = time.perf_counter()
            with self.wake:
                self.lines.append((now, raw.decode("utf-8", "replace").rstrip("\n")))
                self.wake.notify_all()

    def _wait(self):
        _, status, rusage = os.wait4(self.pid, 0)
        now = time.perf_counter()
        with self.wake:
            self.t_exit, self.rusage = now, rusage
            self.status = os.waitstatus_to_exitcode(status)
            # Reaped here: stop Popen from ever waiting on the pid itself.
            self.popen.returncode = self.status
            self.wake.notify_all()

    def first(self, predicate):
        return next(((t, line) for t, line in self.lines if predicate(line)), None)

    def kill(self):
        with self.wake:
            if self.rusage is None:
                try:
                    os.kill(self.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def finish(self, deadline):
        """Reaps the process (killing it at `deadline`) and closes its pipes."""
        self.waiter.join(max(0.0, deadline - time.perf_counter()))
        if self.waiter.is_alive():
            self.kill()
            self.waiter.join()
        self.reader.join()
        self.popen.stdout.close()
        self.stderr.close()
        return self.status == 0

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def max_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # Linux reports KiB


class Group:
    """The processes of one repetition, sharing one wake-up condition."""

    def __init__(self, log_dir):
        self.wake = threading.Condition()
        self.procs = []
        self.log_dir = log_dir

    def spawn(self, *args):
        log = self.log_dir / f"stderr-{len(self.procs)}.log"
        proc = Proc(args, log, self.wake)
        self.procs.append(proc)
        return proc

    def wait_for(self, find, deadline):
        """Blocks until `find()` returns something or `deadline`; returns it."""
        with self.wake:
            while True:
                found = find()
                if found is not None:
                    return found
                left = deadline - time.perf_counter()
                if left <= 0:
                    return None
                self.wake.wait(min(left, 0.05))

    def finish(self, deadline):
        """Kills whatever is still running at `deadline`, reaps everything;
        True when every process exited 0."""
        ok = True
        for proc in self.procs:
            ok &= proc.finish(deadline)
        return ok

    def abort(self):
        for proc in self.procs:
            proc.kill()
        self.finish(time.perf_counter())


def stolen_s():
    """CPU time the hypervisor has stolen from this VM so far (all vCPUs)."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def calibrate():
    """Mean CPU time of the frozen calibration kernel, one copy per vCPU
    running at once — the workloads keep both vCPUs busy too."""
    procs = [subprocess.Popen([str(CALIBRATOR)], stdout=subprocess.DEVNULL) for _ in range(NCPU)]
    total = 0.0
    for proc in procs:
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise BenchError(f"calibration kernel exited with {proc.returncode}")
        total += rusage.ru_utime + rusage.ru_stime
    return total / len(procs)


def threads_started(pid):
    """True once the process runs more than its main thread — the sweep
    engine's workers starting on the first sweep."""
    try:
        return len(os.listdir(f"/proc/{pid}/task")) > 1
    except OSError:
        return False


# ---------------------------------------------------------------------------
# Artifacts.
# ---------------------------------------------------------------------------


def digests(directory):
    """sha256 of every report artifact (CSV/JSON) at the top of `directory`;
    the fleet's `metrics.json` sidecar and `checkpoints/` are not reports."""
    out = {}
    for path in sorted(Path(directory).iterdir()):
        if path.is_file() and path.suffix in (".csv", ".json") and path.name != "metrics.json":
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def load_reference():
    if not REFERENCE.is_file():
        raise BenchError(f"missing reference digests {REFERENCE} (run --write-reference)")
    return json.loads(REFERENCE.read_text())


def check_artifacts(found, expected):
    """Per experiment: did it write exactly its reference artifacts? Files no
    experiment claims fail the run as a whole (returned separately)."""
    ok = {name: all(found.get(f) == d for f, d in files.items()) for name, files in expected.items()}
    claimed = {f for files in expected.values() for f in files}
    stray = sorted(set(found) - claimed)
    return ok, stray


# ---------------------------------------------------------------------------
# One repetition of each workload.
# ---------------------------------------------------------------------------


class Rep:
    """What one repetition measured and checked."""

    def __init__(self):
        self.wall_s = self.cpu_s = self.rss_mb = None
        self.steal_share = 0.0
        # Calibration kernel CPU time around this repetition.
        self.cal_s = CAL_REF_S
        self.attempted = self.failed = 0
        self.notes = []
        self.digests = {}
        self.fleet = {}

    def fail(self, count, why):
        self.failed += count
        self.notes.append(why)


def rep_dir(tag):
    path = WORK / tag
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def single_process_rep(workload, args, expected):
    """`repro all` / `repro scale`: one process; every experiment's artifact
    set is one operation."""
    rep = Rep()
    out = rep_dir(f"{workload}/rep")
    group = Group(out.parent)
    deadline = time.perf_counter() + REP_TIMEOUT_S
    proc = group.spawn(REPRO, *args, "--json", "--out", out, "--threads", THREADS)
    exited = group.finish(deadline)
    rep.attempted = len(expected)
    if not exited:
        rep.fail(len(expected), f"repro exited with {proc.status}")
        return rep
    rep.wall_s = proc.t_exit - proc.t_spawn
    rep.cpu_s, rep.rss_mb = proc.cpu_s, proc.max_rss_mb
    rep.digests = digests(out)
    ok, stray = check_artifacts(rep.digests, expected)
    for name, good in ok.items():
        announced = proc.first(lambda line, n=name: line.startswith(f"[{n}] done in"))
        if not (good and announced):
            rep.fail(1, f"{name}: artifacts differ from the reference")
    if stray:
        rep.fail(1, f"unexpected artifacts {stray}")
        rep.attempted += 1
    return rep


def first_line_setup(group, proc, deadline):
    """Spawn to the first report line (`table1` simulates nothing, so its
    report is the first thing `repro all` prints)."""
    found = group.wait_for(lambda: proc.first(lambda line: True), deadline)
    return found[0] - proc.t_spawn if found else None


def worker_start_setup(group, proc, deadline):
    """Spawn to the sweep engine starting its worker threads: `repro scale`
    prints nothing until it ends, so the probe watches /proc instead."""
    while time.perf_counter() < deadline:
        if threads_started(proc.pid):
            return time.perf_counter() - proc.t_spawn
        if proc.rusage is not None:
            return None
    return None


def fleet_rep(full, expected, direct_digests):
    """`repro serve` + two `repro work --threads 1`, all on this host.

    The clock stops when the coordinator reports its final artifacts
    written; `--linger-secs 0` makes it exit right after, and the workers
    exit on their next poll. Operations: the artifact set, plus every
    result POST.
    """
    rep = Rep()
    out = rep_dir("fleet/rep")
    group = Group(out.parent)
    deadline = time.perf_counter() + REP_TIMEOUT_S
    grid = ["--full"] if full else []
    coord = group.spawn(
        REPRO, "serve", "saturation", *grid, "--json", "--out", out, "--port", "0", "--linger-secs", "0"
    )
    rep.attempted = 1
    bound = group.wait_for(lambda: coord.first(lambda l: l.startswith("[serve] saturation on ")), deadline)
    if bound is None:
        group.abort()
        rep.fail(1, "coordinator did not start")
        return rep
    # `--port 0`: the kernel picks a free port; the coordinator prints it.
    port = bound[1].split(" on ", 1)[1].split(":")[1]
    workers = [
        group.spawn(REPRO, "work", "--connect", f"127.0.0.1:{port}", "--threads", "1") for _ in range(2)
    ]
    written = group.wait_for(lambda: coord.first(lambda l: l.startswith("[serve] CSVs + JSON written")), deadline)
    exited = group.finish(deadline)
    leases = [w.first(lambda l: l.startswith("[work] lease ") and " trials across " in l) for w in workers]
    claimed = sum(sum(1 for _, l in w.lines if " trials across " in l) for w in workers)
    accepted = sum(sum(1 for _, l in w.lines if l.startswith("[work] lease ") and " accepted: " in l) for w in workers)
    rep.attempted += claimed
    if claimed != accepted:
        rep.fail(claimed - accepted, f"{claimed - accepted} result POSTs not accepted")
    if written is None or not exited:
        rep.fail(1, f"fleet did not finish cleanly (exit codes {[p.status for p in group.procs]})")
        return rep
    rep.wall_s = written[0] - coord.t_spawn
    rep.cpu_s = sum(p.cpu_s for p in group.procs)
    rep.rss_mb = max(p.max_rss_mb for p in group.procs)
    rep.digests = digests(out)
    ok, stray = check_artifacts(rep.digests, expected)
    if not all(ok.values()) or stray or (direct_digests is not None and rep.digests != direct_digests):
        rep.fail(1, "fleet artifacts differ from the reference or the direct run")
    summary = coord.first(lambda l: l.startswith("[serve] saturation complete: "))
    counts = [int(tok) for tok in summary[1].split(": ", 1)[1].replace(",", " ").split() if tok.isdigit()]
    seqs = [int(p.name.split(".ckpt")[1][:6]) for p in (out / "checkpoints").glob("*.ckpt*")]
    rep.fleet = {
        "posts_accepted": counts[0],
        "duplicate_trials": counts[1],
        "leases_reissued": counts[2],
        "checkpoints": max(seqs) + 1 if seqs else 0,
        "workers": sum(1 for lease in leases if lease is not None),
        "coordinator_cpu_s": coord.cpu_s,
        "worker_wait_s": sum((w.t_exit - w.t_spawn) - w.cpu_s for w in workers),
    }
    return rep


def direct_saturation(full, expected):
    """The direct run the fleet must reproduce: `repro saturation`."""
    grid = ["--full"] if full else []
    return single_process_rep("fleet-direct", ["saturation", *grid], expected)


def setup_probe(workload):
    """One extra spawn-to-first-work sample: start the workload, stop it as
    soon as its first unit of work is handed out."""
    out = rep_dir(f"{workload}/probe")
    group = Group(out.parent)
    deadline = time.perf_counter() + REP_TIMEOUT_S
    try:
        if workload == "repro_all":
            proc = group.spawn(REPRO, "all", "--json", "--out", out, "--threads", THREADS)
            return first_line_setup(group, proc, deadline)
        if workload == "scale_tail":
            proc = group.spawn(REPRO, "scale", "--json", "--out", out, "--threads", THREADS)
            return worker_start_setup(group, proc, deadline)
        coord = group.spawn(
            REPRO, "serve", "saturation", "--full", "--json", "--out", out, "--port", "0", "--linger-secs", "0"
        )
        bound = group.wait_for(lambda: coord.first(lambda l: l.startswith("[serve] saturation on ")), deadline)
        if bound is None:
            return None
        port = bound[1].split(" on ", 1)[1].split(":")[1]
        workers = [
            group.spawn(REPRO, "work", "--connect", f"127.0.0.1:{port}", "--threads", "1") for _ in range(2)
        ]

        def first_lease():
            hits = [w.first(lambda l: l.startswith("[work] lease ")) for w in workers]
            times = [h[0] for h in hits if h]
            return min(times) if times else None

        found = group.wait_for(first_lease, deadline)
        return found - coord.t_spawn if found else None
    finally:
        group.abort()


class Workload:
    """Runs repetitions of one workload and keeps what they measured."""

    def __init__(self, name, reference):
        self.name = name
        self.reps = []
        # (seconds at reference speed, whether the hypervisor stole time
        # during the sample)
        self.setup = []
        self.notes = []
        self.attempted = self.failed = 0
        self.expected = reference[name]
        self.direct = None

    def record(self, rep, timed=True):
        self.attempted += rep.attempted
        self.failed += rep.failed
        self.notes.extend(rep.notes)
        if timed and rep.failed == 0:
            self.reps.append(rep)
        return rep

    def rep(self, timed=True):
        stolen, started = stolen_s(), time.perf_counter()
        rep = self._rep()
        rep.steal_share = (stolen_s() - stolen) / (NCPU * (time.perf_counter() - started))
        return self.record(rep, timed)

    def _rep(self):
        if self.name == "repro_all":
            rep = single_process_rep(self.name, ["all"], self.expected)
        elif self.name == "scale_tail":
            rep = single_process_rep(self.name, ["scale"], self.expected)
        else:
            if self.direct is None:
                self.direct = self.record(direct_saturation(True, self.expected), timed=False)
            rep = fleet_rep(True, self.expected, self.direct.digests)
        return rep

    def probe_setup(self, cal_s):
        stolen = stolen_s()
        sample = setup_probe(self.name)
        if sample is not None:
            self.setup.append((sample * CAL_REF_S / cal_s, stolen_s() > stolen))

    def timed_reps(self):
        """The uncontended repetitions, or the least-stolen few."""
        clean = [r for r in self.reps if r.steal_share <= STEAL_LIMIT]
        if len(clean) >= MIN_REPS:
            return clean
        return sorted(self.reps, key=lambda r: r.steal_share)[:MIN_REPS]

    def setup_samples(self):
        clean = [s for s, stolen in self.setup if not stolen]
        return clean if len(clean) >= SETUP_PROBES // 3 else [s for s, _ in self.setup]


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def upper_quartile(values):
    """Peak RSS is bimodal between repetitions (allocation timing of two
    threads); the upper quartile reads the usual high mode, ignoring both a
    run-dependent share of low ones and a rare outlier above."""
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=4)[2]


def end_to_end(name, seconds, reference):
    load = Workload(name, reference)
    load.rep(timed=False)  # warm-up: page cache, CPU frequency, lazy set-up
    started = time.perf_counter()
    runs, cal = 0, calibrate()
    while runs < MIN_REPS or time.perf_counter() - started < seconds:
        rep = load.rep()
        runs += 1
        # The host's speed drifts within a run: calibrate around every
        # repetition and scale each one by its own calibration.
        before, cal = cal, calibrate()
        rep.cal_s = (before + cal) / 2
        for _ in range(3):
            if len(load.setup) < SETUP_PROBES:
                load.probe_setup(cal)
        if load.failed and runs >= MIN_REPS:
            break
    while len(load.setup) < SETUP_PROBES:
        load.probe_setup(cal)
    med = lambda xs: statistics.median(xs) if xs else 0.0
    reps, setup = load.timed_reps(), load.setup_samples()
    wall, cpu = med([r.wall_s for r in reps]), med([r.cpu_s for r in reps])
    metrics = {
        "wall_s": metric(med([r.wall_s * CAL_REF_S / r.cal_s for r in reps]), "s"),
        "cpu_s": metric(med([r.cpu_s * CAL_REF_S / r.cal_s for r in reps]), "s"),
        "peak_rss_mb": metric(upper_quartile([r.rss_mb for r in reps]), "MB"),
        "setup_s": metric(med(setup), "s"),
    }
    print(
        f"# {name}: medians of {len(reps)} of {len(load.reps)} repetitions "
        f"(hypervisor steal <= {STEAL_LIMIT:.0%} of vCPU time) and {len(setup)} of "
        f"{len(load.setup)} set-up samples (no steal)"
    )
    print(
        f"# as measured: wall_s {wall} s, cpu_s {cpu} s; calibration kernel "
        f"{med([r.cal_s for r in reps])} s CPU (reference {CAL_REF_S} s)"
    )
    return load, metrics


def traced(name, seconds, seed, reference):
    """One untraced repetition (the wall the trace is compared with), the
    fleet layer, then the in-process tracer for the rest of the budget."""
    started = time.perf_counter()
    load = Workload(name, reference)
    load.rep(timed=False)  # warm-up, as in the untraced run
    rep = load.rep()
    untraced_wall = rep.wall_s
    if name == "fleet_saturation":
        fleet, direct = rep, load.direct
        # The tracer replays the direct run; compare like with like.
        untraced_wall = direct.wall_s
    else:
        # The fleet layer on a workload without one: the quick-grid fleet.
        expected = reference["probe_fleet"]
        direct = load.record(direct_saturation(False, expected), timed=False)
        fleet = load.record(fleet_rep(False, expected, direct.digests), timed=False)
    out = WORK / name / "trace"
    shutil.rmtree(out, ignore_errors=True)
    budget = max(1.0, seconds - (time.perf_counter() - started))
    tracer = subprocess.run(
        [str(TRACER), "--workload", name, "--seed", str(seed), "--seconds", f"{budget:.3f}", "--out", str(out)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=150,
    )
    if tracer.returncode != 0:
        load.attempted += 1
        load.failed += 1
        load.notes.append("tracer: " + tracer.stderr.decode(errors="replace").strip())
        return load, {}
    result = json.loads(tracer.stdout.decode().strip().splitlines()[-1])
    # Traced and untraced runs must write identical artifacts.
    load.attempted += 1
    traced_digests = digests(out / "artifacts")
    if rep.failed or traced_digests != rep.digests:
        load.failed += 1
        load.notes.append("traced replay artifacts differ from the untraced run's")
    metrics = dict(result["metrics"])
    if fleet.failed == 0 and direct.failed == 0:
        f = fleet.fleet
        metrics.update(
            {
                "fleet.overhead_ratio": metric(fleet.wall_s / direct.wall_s, "ratio"),
                "fleet.coordinator_cpu_s": metric(f["coordinator_cpu_s"], "s"),
                "fleet.worker_wait_s": metric(f["worker_wait_s"], "s"),
                "fleet.posts_accepted": metric(f["posts_accepted"], "count"),
                "fleet.duplicate_trials": metric(f["duplicate_trials"], "count"),
                "fleet.leases_reissued": metric(f["leases_reissued"], "count"),
                "fleet.checkpoints": metric(f["checkpoints"], "count"),
            }
        )
        print(f"# fleet: {f['workers']} of 2 workers received leases")
    if untraced_wall:
        metrics["trace.overhead_ratio"] = metric(result["replay_wall_s"] / untraced_wall, "ratio")
    TRACES.mkdir(exist_ok=True)
    spans = shutil.move(out / "spans.jsonl", TRACES / f"{name}.spans.jsonl")
    print(
        f"# trace: {result['passes']} layer passes, {result['spans']} spans in {spans}, "
        f"trial samples {result['trial_samples']}"
    )
    return load, metrics


# ---------------------------------------------------------------------------
# Build, provenance, entry points.
# ---------------------------------------------------------------------------


def require_checkout():
    for path in ("Cargo.toml", "Cargo.lock", "crates/experiments", "src/bin/repro.rs"):
        if not (ROOT / path).exists():
            raise BenchError(f"{ROOT} is not a checkout of the repository (no {path})")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))
    for target in (["--bin", "repro"], ["--manifest-path", "perfbench/tracer/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *target]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            raise BenchError("build failed:\n" + done.stdout.decode(errors="replace"))


def provenance():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    # What the commit would pin, computed from the sources themselves.
    source = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor"):
        base = ROOT / top
        paths = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in paths:
            source.update(str(path.relative_to(ROOT)).encode())
            source.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": rustc,
        "profile": "release",
        "python": platform.python_version(),
    }


def run(workload, seed, seconds, trace):
    require_checkout()
    reference = load_reference()
    build()
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    if trace:
        load, metrics = traced(workload, seconds, seed, reference)
        wanted = SPEC["per_layer"]
    else:
        load, metrics = end_to_end(workload, seconds, reference)
        wanted = SPEC["end_to_end"]
    for note in load.notes:
        print(f"# FAILED: {note}")
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            load.notes.append(f"metric {spec['name']} missing or not in {spec['unit']}")
            continue
        print(f"{spec['name']} {got['value']} {got['unit']}")
    share = load.failed / load.attempted if load.attempted else 1.0
    print(f"failed_share {share} ratio ({load.failed} of {load.attempted} operations)")
    result = {
        "correct": load.failed == 0 and not any(n.startswith("metric ") for n in load.notes),
        "attempted": max(1, load.attempted),
        "failed": load.failed,
        "metrics": {spec["name"]: metrics[spec["name"]] for spec in wanted if spec["name"] in metrics},
    }
    return result


def write_reference():
    """Regenerates the reference digests from the current build. Run only
    after an intended change to what `repro` writes."""
    require_checkout()
    build()
    names = []
    listed = subprocess.run([str(REPRO), "list"], cwd=ROOT, capture_output=True, text=True, check=True)
    for line in listed.stdout.splitlines():
        name = line.split()[0] if line.strip() else ""
        if name and name != "bench":
            names.append(name)
    owner = {}
    per_experiment = {}
    for name in names:
        out = rep_dir("reference")
        subprocess.run(
            [str(REPRO), name, "--json", "--out", str(out), "--threads", THREADS],
            cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
        )
        per_experiment[name] = digests(out)
        for f in per_experiment[name]:
            owner[f] = name  # `repro all` runs in registry order: last writer wins
    repro_all = {name: {f: d for f, d in files.items() if owner[f] == name} for name, files in per_experiment.items()}

    def single(args):
        out = rep_dir("reference")
        subprocess.run([str(REPRO), *args, "--json", "--out", str(out), "--threads", THREADS],
                       cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        return digests(out)

    reference = {
        "repro_all": repro_all,
        "scale_tail": {"scale": single(["scale"])},
        "fleet_saturation": {"saturation": single(["saturation", "--full"])},
        "probe_fleet": {"saturation": single(["saturation"])},
    }
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK / "reference", ignore_errors=True)
    print(f"wrote {REFERENCE}: {sum(len(v) for v in repro_all.values())} artifacts for repro_all")


def self_check():
    """Smoke-size check of the benchmark itself: every workload, traced and
    untraced, must pass its correctness gate and report every named metric
    with its unit."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, seed=1, seconds=1, trace=trace)
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
            if not result["correct"] or result["failed"] or missing:
                problems.append(f"{workload} trace={trace}: correct={result['correct']} "
                                f"failed={result['failed']} missing={missing}")
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.self_check:
            return 0 if self_check() else 1
        if args.workload is None:
            for workload in WORKLOADS:
                print(f"{workload} {json.dumps(run(workload, args.seed, args.seconds, args.trace))}")
            return 0
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
