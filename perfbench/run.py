#!/usr/bin/env python3
"""perfbench: the simulator's end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the simulator and the round program in
Release under $CARGO_TARGET_DIR (default .bench_build), writes the seeded
input, checks the round program against the real `wbsim` command once, then runs
closed-loop rounds, each in a fresh process, for S seconds. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics (--trace 0) or the per-layer metrics of traced rounds
(--trace 1). The line before it is the full record: provenance, quartiles
and sample counts.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

ROUND_TIMEOUT_S = 120
INVOCATION_BUDGET_S = 170
SWEEP_THREADS = 4

# Per-layer metrics of a traced invocation beyond benchlib.layer_metrics.
TRACE_EXTRAS = ("trace.overhead_s", "trace.overhead_frac", "trace.coverage",
                "exhaustive.serial_s", "exhaustive.speedup")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "schedules_per_s": "1/s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- Build and provenance -----------------------------------------------------

def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    """Configure (once) and build in Release; returns (round, wbsim) paths."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        raise BenchError("run from the repository root: the simulator sources are missing")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache) and cached_source_dir(cache) != os.path.abspath("perfbench"):
        shutil.rmtree(out)  # configured for another checkout: it would build that one
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", "perfbench", "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench_round", "wbsim"])
    return (os.path.abspath(os.path.join(out, "perfbench_round")),
            os.path.abspath(os.path.join(out, "whiteboard", "tools", "wbsim")))


def cached_source_dir(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git(*args):
    try:
        proc = subprocess.run(["git", *args], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(round_exe, args):
    binary = json.loads(subprocess.run([round_exe, "--provenance"], capture_output=True,
                                       text=True, check=True).stdout)
    if binary["build_type"] != "Release" or not binary["ndebug"]:
        raise BenchError(f"refusing to record from a {binary['build_type']} build")
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": (status != "") if status is not None else None,
        "source_sha256": source_digest(),
        "build_type": binary["build_type"],
        "compiler": binary["compiler"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "seed": args.seed,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


# --- Inputs and the wbsim cross-check -------------------------------------------

def make_input(workload, seed, wbsim):
    """The graph spec the round and wbsim receive for this seed."""
    spec = benchlib.WORKLOADS[workload]["graph"]
    if "{seed}" in spec:  # seeded directly, not relabeled
        return spec.format(seed=seed)
    text = subprocess.run([wbsim, "graph", "gen", spec], capture_output=True, text=True,
                          check=True).stdout
    inputs = os.path.join(build_dir(), "inputs")
    os.makedirs(inputs, exist_ok=True)
    path = os.path.abspath(os.path.join(inputs, f"{workload}-seed{seed}.el"))
    with open(path, "w") as f:
        f.write(benchlib.relabel_edge_list(text, seed))
    return "file:" + path


# --- One round in a fresh process -------------------------------------------------

def run_round(round_exe, wbsim, workload, graph, seed, timeout, threads=SWEEP_THREADS,
              trace_path=None):
    """Spawn one round; returns its timings, rusage, exit code and totals."""
    out_path = os.path.join(build_dir(), f"round-{os.getpid()}.out")
    argv = [round_exe, workload, graph, str(seed), f"--threads={threads}",
            f"--wbsim={wbsim}"]
    if trace_path:
        argv.append(f"--trace={trace_path}")
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.monotonic()
        pid = os.posix_spawn(round_exe, argv, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)], setpgroup=0)
    finally:
        os.close(fd)
    timer = threading.Timer(timeout, kill_group, (pid,))
    timer.start()
    _, status, usage = os.wait4(pid, 0)
    t_exit = time.monotonic()
    timer.cancel()
    kill_group(pid)  # fleet workers share the round's process group
    with open(out_path) as f:
        lines = f.read().splitlines()
    os.remove(out_path)
    totals = None
    if lines:
        try:
            totals = json.loads(lines[-1])
        except json.JSONDecodeError:
            totals = None
    return {
        "t0": t0,
        "t_exit": t_exit,
        "exit_code": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "totals": totals,
    }


def kill_group(pgid):
    """SIGKILL what is left of a round's process group and wait for it to go."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def end_to_end(r):
    """The end-to-end metrics of one verified round."""
    totals = r["totals"]
    wall = r["t_exit"] - r["t0"]
    setup = totals["t_setup"] - r["t0"]
    work = wall - setup
    return {
        "wall_s": wall,
        "setup_s": setup,
        "schedules_per_s": totals["executions"] / work,
        "rounds_per_s": totals["engine_rounds"] / work,
        "peak_rss_mb": r["peak_rss_mb"],
        "cpu_s": r["cpu_s"],
    }


# --- The invocation ----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(benchlib.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    round_exe, wbsim = build()
    started = time.monotonic()  # the build may take longer than a run may

    def timeout():
        return max(10, min(ROUND_TIMEOUT_S, INVOCATION_BUDGET_S - (time.monotonic() - started)))

    prov = provenance(round_exe, args)
    graph = make_input(args.workload, args.seed, wbsim)
    log(f"{args.workload} seed {args.seed}: input {graph}")

    # wbsim runs first, outside the timed rounds; it also warms the page cache.
    spec = benchlib.WORKLOADS[args.workload]
    try:
        wb_proc = subprocess.run(
            [wbsim, graph, spec["protocol"], spec["wbsim_adversary"].format(seed=args.seed)],
            capture_output=True, text=True, timeout=timeout())
        wb_exit, wb_out = wb_proc.returncode, wb_proc.stdout
    except subprocess.TimeoutExpired:
        wb_exit, wb_out = "timeout", ""

    rounds = []
    traces = []
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)

    def one(kind, threads=SWEEP_THREADS):
        trace_path = None
        if kind != "untraced":
            trace_path = os.path.join(trace_dir, f"round-{os.getpid()}.json")
        r = run_round(round_exe, wbsim, args.workload, graph, args.seed, timeout(), threads,
                      trace_path)
        r["kind"] = kind
        r["failure"] = benchlib.verify_round(args.workload, r["exit_code"], r["totals"])
        if r["failure"] is None and trace_path:
            with open(trace_path) as f:
                trace = json.load(f)
            trace["round"] = len(rounds)
            trace["kind"] = kind
            trace["wall_s"] = r["t_exit"] - r["t0"]
            trace["coverage"] = benchlib.top_level_coverage(trace["spans"], r["t0"], r["t_exit"])
            trace["self_s"] = benchlib.self_times(trace["spans"])
            traces.append(trace)
        if trace_path and os.path.exists(trace_path):
            os.remove(trace_path)
        if r["failure"]:
            log(f"round {len(rounds)} ({kind}) failed: {r['failure']}")
        rounds.append(r)

    window_end = time.monotonic() + args.seconds
    while True:
        if args.trace:
            one("untraced")
            one("traced")
        else:
            one("untraced")
        if time.monotonic() >= window_end or timeout() < 30:
            break
    if args.trace and args.workload == "sweep_exact":
        one("serial", threads=1)

    ok_rounds = [r for r in rounds if r["failure"] is None]
    failed = len(rounds) - len(ok_rounds)
    check = benchlib.crosscheck(args.workload, wb_exit, wb_out,
                                ok_rounds[0]["totals"] if ok_rounds else None)
    if check:
        log(f"wbsim cross-check failed: {check}")

    timed = [r for r in ok_rounds if r["kind"] == "untraced"] or \
        [r for r in rounds if r["kind"] == "untraced" and r["totals"]]
    e2e = {name: benchlib.summarize([end_to_end(r)[name] for r in timed])
           for name in END_TO_END} if timed else {}
    record = {
        "workload": args.workload,
        "provenance": dict(prov, loadavg_1m_end=os.getloadavg()[0]),
        "seconds": args.seconds,
        "rounds": len(rounds),
        "failed": failed,
        "failed_frac": failed / len(rounds),
        "wbsim_crosscheck": check or "pass",
        "end_to_end": e2e,
    }

    if args.trace:
        per_layer = per_layer_metrics(rounds, traces)
        record["per_layer"] = per_layer
        record["trace_file"] = write_trace_file(args, prov, traces, per_layer)
        metrics = {name: {"value": v["median"], "unit": benchlib.unit_of(name)}
                   for name, v in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name]["median"] if e2e else 0, "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and check is None,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_metrics(rounds, traces):
    """Medians over traced rounds, plus the tracing overhead and serial baseline."""
    traced = [t for t in traces if t["kind"] == "traced"]
    per_round = [benchlib.layer_metrics(t) for t in traced] or \
        [benchlib.layer_metrics({"spans": [], "counts": {}})]
    out = {name: benchlib.summarize([m[name] for m in per_round]) for name in per_round[0]}
    # Each traced round runs right after an untraced one; pairing them keeps
    # slow drifts of the host out of the difference.
    pairs = [(a["t_exit"] - a["t0"], b["t_exit"] - b["t0"]) for a, b in zip(rounds, rounds[1:])
             if a["kind"] == "untraced" and b["kind"] == "traced"
             and a["failure"] is None and b["failure"] is None]
    out["trace.overhead_s"] = benchlib.summarize([b - a for a, b in pairs] or [0])
    out["trace.overhead_frac"] = benchlib.summarize([(b - a) / a for a, b in pairs] or [0])
    out["trace.coverage"] = benchlib.summarize([t["coverage"] for t in traced] or [0])
    serial = [benchlib.serial_work_s(t) for t in traces if t["kind"] == "serial"]
    parallel = [benchlib.serial_work_s(t) for t in traced]
    serial_s = serial[0] if serial else 0
    out["exhaustive.serial_s"] = benchlib.summarize([serial_s])
    out["exhaustive.speedup"] = benchlib.summarize(
        [serial_s / benchlib.median(parallel) if serial and parallel else 0])
    return out


def write_trace_file(args, prov, traces, per_layer):
    path = os.path.join(build_dir(), "traces",
                        f"{args.workload}-seed{args.seed}-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump({"provenance": prov, "workload": args.workload, "rounds": traces,
                   "per_layer": per_layer}, f, indent=1)
    return path


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(2)
