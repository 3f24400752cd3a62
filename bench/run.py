"""bcbounds benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload lambda_search --seed 3 --seconds 36 --trace 0

Run from the root of a checkout; bcbounds is imported from ``src/`` and
the workload names and metric units are read from ``BENCHMARK.json``.
Every process is a fresh single-threaded interpreter: BLAS and OpenMP
pools are pinned to one thread and ``BCBOUNDS_WORKERS`` is removed.

``--trace 0`` prints the end-to-end metrics:
  setup_s      median over SETUP_REPEATS fresh interpreters of the time
               from process start until ``import bcbounds`` is done and
               the workload's inputs are built
  solve_s      median seconds per task over the tasks whose reference
               check passed (all tasks if none passed)
  pass_ratio   tasks whose reference check passed / tasks attempted
  peak_rss_mb  peak resident memory of the workload process
Both times are calibrated: wall time scaled to the reference speed
measured during the same interval (speed.py), so that runs on a shared
machine minutes apart agree. The raw wall medians are printed beside them,
and so is ``fail_ratio`` (1 - pass_ratio).

``--trace 1`` runs a fixed number of tasks untraced and traced, with
wrappers around every public bcbounds function (spans.py), and prints the
per-layer metrics: counts per task, self and inclusive times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Earlier lines give
the per-task outputs (value, lambda*, evaluations, error in bits) and the
provenance of the run; the full record is also written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
PROCESS_TIMEOUT = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BCBOUNDS_WORKERS"}
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def worker_cmd(root: Path, args, *extra: str) -> list[str]:
    return [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(root),
        "--workload", args.workload,
        "--seed", str(args.seed),
        *extra,
    ]


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def time_setup(root: Path, args) -> tuple[float, float]:
    """(calibrated, wall) seconds from spawning a fresh interpreter to its
    ``ready`` line; the worker reports its probe's time and slowdown."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        worker_cmd(root, args, "--setup-only"),
        cwd=root, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=PROCESS_TIMEOUT)
    finally:
        stop(proc)
    parts = line.split()
    if code != 0 or len(parts) != 3 or parts[0] != "ready":
        raise BenchError(f"set-up process failed (exit {code})")
    cost, slowdown = float(parts[1]), float(parts[2])
    return (wall - cost) / slowdown, wall


def run_worker(root: Path, args, spans: Path | None) -> dict:
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans is not None:
        extra += ["--spans", str(spans)]
    proc = subprocess.Popen(
        worker_cmd(root, args, *extra), cwd=root, env=child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("workload process timed out")
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return json.loads(lines[-1])


def provenance(root: Path) -> dict:
    src = root / "src" / "bcbounds"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "bcbounds_workers": "unset",
        "machine": platform.machine(),
    }


def main() -> int:
    root = Path.cwd()
    # workload names and metric units come from BENCHMARK.json
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (root / "src" / "bcbounds" / "__init__.py").is_file():
        print(f"error: no src/bcbounds under {root}", file=sys.stderr)
        return 2

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            res = run_worker(root, args, out_dir / f"{stem}-spans.npz")
        else:
            setups = [time_setup(root, args) for _ in range(SETUP_REPEATS)]
            res = run_worker(root, args, None)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tasks = res["tasks"]
    attempted = len(tasks)
    failed = sum(1 for t in tasks if not t["passed"])
    res["provenance"] = provenance(root)
    for t in tasks:
        print(
            f"task {t['task']}: passed={t['passed']} value={t['value_bits']:.9f} bits "
            f"lambda*={t.get('lambda_star', float('nan')):.6g} "
            f"evaluations={t.get('evaluations', '-')} error={t['error_bits']:.3g} bits "
            f"solve={t['solve_s']:.3f} s wall={t['wall_s']:.3f} s"
        )
    print(f"reference check: {res['tolerance']}")
    if args.trace:
        values = res["layers"]
        for caller, row in res["search_breakdown"].items():
            print(f"searches from {caller}: {json.dumps(row)}")
    else:
        res["setup_runs"] = [{"setup_s": c, "wall_s": w} for c, w in setups]
        values = {
            "setup_s": statistics.median(c for c, _ in setups),
            "solve_s": res["solve_s"],
            "pass_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print(
            f"setup_s={values['setup_s']:.4f} s (median of {SETUP_REPEATS}; "
            f"wall {statistics.median(w for _, w in setups):.4f} s)  "
            f"solve_s={values['solve_s']:.4f} s (median of {res['solve_samples']} tasks; "
            f"wall {res['wall_s']:.4f} s)  "
            f"fail_ratio={failed / attempted:.4f} ({failed}/{attempted})  "
            f"peak_rss_mb={values['peak_rss_mb']:.1f} MB"
        )
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(f"provenance: {json.dumps(res['provenance'])} versions: {json.dumps(res['versions'])}")
    res["metrics"] = metrics
    (out_dir / f"{stem}.json").write_text(json.dumps(res, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
