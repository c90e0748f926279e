#!/usr/bin/env python3
"""s3harm benchmark: time verified results end to end, or trace the layers.

    python3 perfbench/run.py --workload verify-j12 --seed 1 --seconds 10 --trace 0

Run from the repository root or anywhere: paths are resolved from this
file.  Each workload is a closed loop with one client: one program process
at a time, started fresh, as a CLI user would.  --trace 0 measures the
end-to-end metrics; --trace 1 runs untraced and traced passes in turn and
reports the per-layer metrics.  Every call's output is checked (checks.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a full record with the environment is
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
PY = sys.executable

SETUP_REPEATS = 9
DEADLINE_S = 170.0
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HIGHDEG_DEGREES = (16, 18, 20)


@dataclass(frozen=True)
class CliCall:
    args: tuple[str, ...]
    check: object


CLI_MIX = (
    CliCall(("group", "--which", "G"), checks.group_text("G")),
    CliCall(("group", "--which", "C2", "--format", "json"), checks.group_json("C2")),
    CliCall(("group", "--which", "C3", "--format", "json"), checks.group_json("C3")),
    CliCall(("multiplicity", "--manifold", "C2", "--jmax", "20"), checks.multiplicity_text("C2", 20)),
    CliCall(("multiplicity", "--manifold", "C3", "--jmax", "20"), checks.multiplicity_text("C3", 20)),
    CliCall(("basis", "--manifold", "C2", "--j", "20", "--format", "json"), checks.basis_json("C2", 20)),
    CliCall(("basis", "--manifold", "C3", "--j", "20", "--format", "csv"), checks.basis_csv("C3", 20)),
    CliCall(("induced", "--format", "csv"), checks.induced_csv()),
    CliCall(("verify", "--suite", "group"), checks.verify_text("group")),
    CliCall(("verify", "--suite", "induced"), checks.verify_text("induced")),
)

VERIFY_J12 = (
    CliCall(("verify", "--suite", "all", "--jmax", "12", "--format", "json"), checks.verify_json("all", 12)),
)

# name -> CLI calls of one pass, or None for the library workload
WORKLOADS = {
    "verify-j12": VERIFY_J12,
    "highdeg-projector": None,
    "cli-mix": CLI_MIX * 2,
}


def workload_sizes(name: str) -> dict:
    """Problem sizes a workload runs at; quadrature nodes are computed from
    the default Euler rule for band limit 2*jmax."""
    if name == "verify-j12":
        band = 2 * 12
        return {
            "jmax": 12,
            "degrees": list(range(13)),
            "quadrature_nodes_computed": (band + 1) ** 2 * (band + 2),
        }
    if name == "highdeg-projector":
        return {
            "degrees": list(HIGHDEG_DEGREES),
            "projector_dims": [(2 * j + 1) ** 2 for j in HIGHDEG_DEGREES],
            "wigner_d_points_per_degree": "4 random + 2 products + deck lifts",
        }
    return {"calls_per_pass": len(CLI_MIX) * 2, "max_degree": 20, "commands": [" ".join(c.args) for c in CLI_MIX]}


# ------------------------------------------------------------ processes


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    """Environment of every program process.

    Bytecode always goes to a cache inside out/, whatever the caller set
    for PYTHONDONTWRITEBYTECODE, so each call imports compiled modules as
    an installed package would instead of recompiling s3harm.
    """
    drop = ("PYTHONPATH", "S3HARM_TOL", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


ENV = child_env()


def run_process(argv: list[str], tag: str, deadline: float) -> Proc:
    """Run one program process to completion; wall time and peak RSS.

    Output goes to files so the process never blocks on a pipe, and
    os.wait4 returns the child's own resource usage.  A process still
    running at the deadline is killed and reported as failed.
    """
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


# ------------------------------------------------------------ passes


@dataclass
class Outcome:
    ok: bool
    message: str
    errors: list
    call_s: float | None


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rss_mb: float
    outcomes: list[Outcome]
    docs: list = field(default_factory=list)
    payload_sizes: dict = field(default_factory=dict)


def run_pass(name: str, seed: int, traced: bool, run_id: str, deadline: float) -> Pass:
    fixture = checks.load_fixture()
    ctx = checks.PassContext(fixture=fixture, seed=seed)
    trace_files = []

    def trace_args(i):
        if not traced:
            return []
        path = OUT / f"trace{i}.json"
        trace_files.append(path)
        return ["--trace-out", str(path), "--run-id", run_id]

    calls = WORKLOADS[name]
    if calls is None:
        degrees = [str(j) for j in HIGHDEG_DEGREES]
        argv = [PY, str(CHILD), "highdeg", "--seed", str(seed), "--degrees", *degrees, *trace_args(0)]
        proc = run_process(argv, "call0", deadline)
        judged = checks.judge_highdeg(proc.code, proc.stdout, proc.stderr, ctx, HIGHDEG_DEGREES)
        outcomes = [Outcome(ok, msg, errs, call_s) for ok, msg, errs, call_s in judged]
        result = Pass(wall_s=proc.wall_s, cpu_s=proc.cpu_s, rss_mb=proc.rss_mb, outcomes=outcomes)
    else:
        procs = []
        start = time.perf_counter()
        for i, call in enumerate(calls):
            args = [*call.args, "--seed", str(seed)]
            if traced:
                argv = [PY, str(CHILD), "cli", *trace_args(i), "--", *args]
            else:
                argv = [PY, "-m", "s3harm.cli", *args]
            procs.append(run_process(argv, f"call{i}", deadline))
        wall = time.perf_counter() - start
        outcomes = []
        for call, proc in zip(calls, procs):
            ok, msg, errs = checks.judge(call.check, proc.code, proc.stdout, proc.stderr, ctx)
            outcomes.append(Outcome(ok, msg, errs, proc.wall_s))
        result = Pass(
            wall_s=wall,
            cpu_s=sum(p.cpu_s for p in procs),
            rss_mb=max(p.rss_mb for p in procs),
            outcomes=outcomes,
        )
        if name == "verify-j12" and outcomes[0].ok:
            details = json.loads(procs[0].stdout)["details"].values()
            result.payload_sizes = {
                f"functions_{d['manifold']}": sum(d["count_by_degree"].values())
                for d in details
                if "count_by_degree" in d
            }
    for path in trace_files:
        if path.exists():
            result.docs.append(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
    return result


# ------------------------------------------------------------ statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest nearest-rank
    percentile with at least min(10, max(1, n // 10)) samples above it.
    From 100 samples on that is the ten-beyond rule; below it the rule
    scales down like a p90 but keeps one sample beyond, so a handful of
    calls never reports its single noisiest one."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, max(1, n // 10)) if n > 1 else 0
    k = n - 1 - beyond
    return ordered[k], 100.0 * (k + 1) / n, beyond


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    walls = [p.wall_s for p in passes]
    call_times = [o.call_s for p in passes for o in p.outcomes if o.call_s is not None]
    outcomes = [o for p in passes for o in p.outcomes]
    errors = [e for o in outcomes if o.ok for e in o.errors]
    tail_value, tail_pct, tail_beyond = tail(call_times) if call_times else (0.0, 0.0, 0)
    q1, med, q3 = quartiles(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (med, "s"),
        "call_s_p50": (statistics.median(call_times) if call_times else 0.0, "s"),
        "call_s_tail": (tail_value, "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "ok_frac": (sum(o.ok for o in outcomes) / len(outcomes), "ratio"),
        "err_digits": (checks.error_digits(errors), "digits"),
    }
    details = {
        "setup_s": {"samples": setup},
        "run_s": {"q1": q1, "median": med, "q3": q3, "count": len(walls), "samples": walls},
        "call_s_p50": {"count": len(call_times)},
        "call_s_tail": {"percentile": tail_pct, "beyond": tail_beyond, "count": len(call_times)},
        "peak_rss_mb": {"per_pass": [p.rss_mb for p in passes]},
        "ok_frac": {"base": len(outcomes)},
        "err_digits": {"largest_error": max(errors, default=0.0)},
    }
    return metrics, details


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, dict]:
    per_pass = []
    bases = {}
    for p in traced:
        values, bases = tracing.layer_metrics(p.docs)
        per_pass.append(values)
    metrics = {}
    for name, unit in tracing.PER_LAYER_UNITS.items():
        samples = [v[name] for v in per_pass if name in v]
        metrics[name] = (statistics.median(samples) if samples else 0.0, unit)
    run_t = statistics.median(p.wall_s for p in traced)
    run_u = statistics.median(p.wall_s for p in untraced)
    metrics["trace.run_s"] = (run_t, "s")
    metrics["trace.untraced_run_s"] = (run_u, "s")
    metrics["trace.overhead_s"] = (run_t - run_u, "s")
    metrics["trace.wigner_bases_share"] = (metrics["trace.wigner_bases_busy_s"][0] / run_t, "ratio")
    details = {
        "ratio_bases": {**bases, "trace.wigner_bases_share": run_t},
        "computed": list(tracing.COMPUTED),
        "traced_passes": len(traced),
    }
    return metrics, details


# ------------------------------------------------------------ environment


def git_sha() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_threads": {var: ENV[var] for var in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload_sizes(args.workload),
        "clients": 1,
        "loop": "closed",
    }


# ------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "s3harm" / "cli.py").is_file():
        print(f"s3harm sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    import_argv = [PY, "-c", "import s3harm.cli"]
    run_process(import_argv, "warmup", deadline)  # fills the bytecode cache; untimed

    setup, untraced, traced = [], [], []
    if args.trace == 0:
        setup = [run_process(import_argv, "setup", deadline).wall_s for _ in range(SETUP_REPEATS)]
    start = time.monotonic()
    while True:
        untraced.append(run_pass(args.workload, args.seed, False, "", deadline))
        if args.trace:
            run_id = f"{args.workload}-{args.seed}-{len(traced)}"
            traced.append(run_pass(args.workload, args.seed, True, run_id, deadline))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(untraced)
        if elapsed >= args.seconds or time.monotonic() + per_round > deadline:
            break

    if args.trace:
        metrics, details = per_layer(untraced, traced)
    else:
        metrics, details = end_to_end(untraced, setup)
    passes = [(False, p) for p in untraced] + [(True, p) for p in traced]
    outcomes = [o for _, p in passes for o in p.outcomes]
    failed = [o.message for o in outcomes if not o.ok]
    env = environment(args)
    env["sizes"].update(next((p.payload_sizes for _, p in passes if p.payload_sizes), {}))
    record = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "passes": [
            {"traced": is_traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "rss_mb": p.rss_mb,
             "calls": [{"ok": o.ok, "message": o.message, "call_s": o.call_s} for o in p.outcomes]}
            for is_traced, p in passes
        ],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if traced:
        spans = [s for p in traced for doc in p.docs for s in doc["spans"]]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        extra = details.get(name, "")
        print(f"{name:32s} {value:>16.6g} {unit:8s} {json.dumps(extra) if extra else ''}")
    for message in sorted(set(failed)):
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
