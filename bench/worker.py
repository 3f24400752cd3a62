"""One benchmark process: import bcbounds from the checkout, build the
workload's inputs, run its tasks and print one JSON line of results.

Started by run.py in a fresh interpreter; not meant to be run by hand.
``--setup-only`` stops after the inputs are built and prints
``ready <probe seconds> <slowdown>``; run.py times it from process start.
Set-up and tasks run under a SpeedProbe (speed.py), which scales their
times to the reference speed; a traced run scales its span times by the
probe's mean slowdown over the traced section.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402

# Most tasks a run can attempt; a run stops early when its time is up.
MAX_TASKS = 64
# Tasks in a traced run. Fixed, so that its counts repeat exactly.
TRACE_TASKS = {"separation": 2, "lambda_search": 2, "product_regions": 1}


def import_bcbounds(root: Path) -> None:
    """Import bcbounds from the checkout's src/, never from elsewhere."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import bcbounds

    where = Path(bcbounds.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"bcbounds imported from {where}, not from {src}")


def run_tasks(workloads, inputs, tasks, seconds: float | None, probe: SpeedProbe) -> list[dict]:
    """Run tasks in order. With ``seconds``, start another task only while
    the median task so far still fits in the time left. ``solve_s`` is the
    task's wall time scaled to the reference speed."""
    done: list[dict] = []
    t_run = time.perf_counter()
    for task in tasks:
        if seconds is not None and done:
            left = seconds - (time.perf_counter() - t_run)
            if statistics.median(d["wall_s"] for d in done) > left:
                break
        t0 = time.perf_counter()
        out = workloads.run_task(inputs, task)
        t1 = time.perf_counter()
        out["wall_s"] = t1 - t0
        out["solve_s"], out["slowdown"] = probe.calibrate(t0, t1)
        out.update(task.describe())
        done.append(out)
    return done


def traced(tracer, workloads, inputs, task, probe: SpeedProbe) -> list[dict]:
    tracer.task_id = task.index
    tracer.install()
    try:
        return run_tasks(workloads, inputs, [task], None, probe)
    finally:
        tracer.uninstall()


def solve_median(done: list[dict], key: str = "solve_s") -> tuple[float, int]:
    """Median of ``key`` over the passed tasks (all tasks if none passed)."""
    ok = [d[key] for d in done if d["passed"]] or [d[key] for d in done]
    return statistics.median(ok), len(ok)


def layer_metrics(tracer, tasks: int, slowdown: float) -> dict[str, float]:
    """Per-task counts and calibrated times (span seconds / slowdown)."""
    s = tracer.summary()

    def get(name: str, key: str) -> float:
        value = s.get(name, {}).get(key, 0)
        return value / slowdown if key in ("s", "self_s") else value

    def per_call(name: str) -> float:
        calls = get(name, "calls")
        return get(name, "s") / calls if calls else 0.0

    vg_in, obj_calls = tracer.value_and_grad_in_searches()
    restarts = sum(r["restarts"] for r in tracer.searches)
    golden = tracer.golden
    return {
        "kernel.entropy_of_array.calls": get("kernel.entropy_of_array", "calls") / tasks,
        "kernel.entropy_of_array.self_s": get("kernel.entropy_of_array", "self_s") / tasks,
        "objectives.value_and_grad.calls": get("objectives.value_and_grad", "calls") / tasks,
        "objectives.value_and_grad.us_per_call": per_call("objectives.value_and_grad") * 1e6,
        "objectives.value_and_grad.self_s": get("objectives.value_and_grad", "self_s") / tasks,
        "objectives.value.calls": get("objectives.value", "calls") / tasks,
        "objectives.grads_per_eval": vg_in / obj_calls if obj_calls else 0.0,
        "search.maximize.calls": get("search.maximize", "calls") / tasks,
        "search.ascend.calls": get("search.ascend", "calls") / tasks,
        "search.restarts": restarts / tasks,
        "search.objective_calls": obj_calls / tasks,
        "search.evals_per_restart": obj_calls / restarts if restarts else 0.0,
        "search.project_blocks.calls": get("search.project_blocks", "calls") / tasks,
        "search.project_blocks.self_s": get("search.project_blocks", "self_s") / tasks,
        "search.self_s": sum(get(k, "self_s") for k in s if k.startswith("search.")) / tasks,
        "search.golden_section_min.evaluations": sum(e for e, _ in golden) / tasks,
        "search.golden_section_min.bracket_width": max((w for _, w in golden), default=0.0),
        "marton.lambda_sr_global.calls": get("marton.lambda_sr_global", "calls") / tasks,
        "marton.lambda_sr_global.s_per_call": per_call("marton.lambda_sr_global"),
        "regions.region_support.s_per_call": per_call("regions.region_support"),
        "regions.uv_sum_rate.s": get("regions.uv_sum_rate", "s") / tasks,
        "counterexample.marton_on_product.s": get("counterexample.marton_on_product", "s") / tasks,
        "counterexample.uv_on_product.s": get("counterexample.uv_on_product", "s") / tasks,
        "channel.capacity.calls": get("channel.capacity", "calls") / tasks,
        "channel.capacity.self_s": get("channel.capacity", "self_s") / tasks,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced run's spans (.npz)")
    args = ap.parse_args()
    root = Path(args.root)

    probe = SpeedProbe()
    with probe:
        t0 = time.perf_counter()
        import_bcbounds(root)
        import workloads

        t1 = time.perf_counter()
        inputs = workloads.Inputs(args.workload)
        tasks = workloads.task_list(args.workload, args.seed, MAX_TASKS)
        t2 = time.perf_counter()
        if args.setup_only:
            cost, slowdown = probe.interval(t0, t2)
            print(f"ready {cost!r} {slowdown!r}", flush=True)
            return 0
    import_s, inputs_s = probe.calibrate(t0, t1)[0], probe.calibrate(t1, t2)[0]

    import numpy
    import scipy

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "tolerance": workloads.TOLERANCES[args.workload],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not args.trace:
        with probe:
            done = run_tasks(workloads, inputs, tasks, args.seconds, probe)
        result["tasks"] = done
        result["solve_s"], result["solve_samples"] = solve_median(done)
        result["wall_s"] = solve_median(done, "wall_s")[0]
    else:
        from spans import Tracer

        n = TRACE_TASKS[args.workload]
        tracer = Tracer()
        plain, done = [], []
        with probe:
            t_start = time.perf_counter()
            for task in tasks[:n]:
                # ABBA order, so warm-up and drift do not all land on one side
                if task.index % 2:
                    done += traced(tracer, workloads, inputs, task, probe)
                plain += run_tasks(workloads, inputs, [task], None, probe)
                if not task.index % 2:
                    done += traced(tracer, workloads, inputs, task, probe)
            slowdown = probe.interval(t_start, time.perf_counter())[1]
        metrics = {"setup.import_s": import_s, "setup.inputs_s": inputs_s}
        metrics.update(layer_metrics(tracer, n, slowdown))
        metrics["trace.overhead_s"] = solve_median(done)[0] - solve_median(plain)[0]
        result["tasks"] = done
        result["untraced_tasks"] = plain
        result["layers"] = metrics
        result["search_breakdown"] = tracer.search_breakdown()
        result["spans"] = dict(sorted(tracer.summary().items()))
        if args.spans:
            numpy.savez_compressed(args.spans, names=numpy.array(tracer.names), **tracer.arrays())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
