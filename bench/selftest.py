"""Self-tests of the benchmark itself. Run from the checkout root:

    python3 bench/selftest.py

They check that the input generator is deterministic and only relabels
the channel, that each workload exercises what it exists for (the lambda
loop iterates on ``lambda_search`` and runs once on ``separation``), that
the trace wrappers reach every lookup site and are removed afterwards,
and that the benchmark fails without the package. Takes about a minute.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bcbounds  # noqa: E402
import workloads  # noqa: E402
from spans import METHODS, Tracer  # noqa: E402


def _bcbounds_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "bcbounds" or n.startswith("bcbounds.")}


def test_generator_is_deterministic():
    for w in workloads.WORKLOADS:
        a = workloads.task_list(w, 7, 6)
        b = workloads.task_list(w, 7, 6)
        c = workloads.task_list(w, 8, 6)
        assert [t.describe() for t in a] == [t.describe() for t in b]
        assert [t.search_seed for t in a] != [t.search_seed for t in c]
        for ta, tb in zip(a, b):
            assert (ta.q is None and tb.q is None) or np.array_equal(ta.q, tb.q)


def test_relabeled_channels_are_valid():
    base = workloads.bec_bsc_pair()
    caps = sorted(bcbounds.channel.capacity(bcbounds.Channel(base), r)[0] for r in "yz")
    swaps = set()
    for seed in range(10):
        for task in workloads.task_list("lambda_search", seed, 8):
            c = bcbounds.Channel(task.q)  # validates row-stochasticity
            assert np.allclose(np.sort(c.q.ravel()), np.sort(base.ravel()))
            got = sorted(bcbounds.channel.capacity(c, r)[0] for r in "yz")
            assert np.allclose(got, caps, atol=1e-9)
            unswapped = c.q.transpose(0, 2, 1) if task.perm["swap"] else c.q
            assert unswapped.shape == base.shape
            swaps.add(task.perm["swap"])
    assert swaps == {False, True}


def test_lambda_loop_counts():
    inputs = workloads.Inputs("lambda_search")
    for task in workloads.task_list("lambda_search", 0, 2):
        out = workloads.run_task(inputs, task)
        assert out["passed"], out
        assert out["evaluations"] > 1, out
    inputs = workloads.Inputs("separation")
    for task in workloads.task_list("separation", 0, 2):
        out = workloads.run_task(inputs, task)
        assert out["passed"], out
        assert out["evaluations"] == 1, out


def test_trace_wrappers_reach_every_site_and_restore():
    modules = _bcbounds_modules()
    before = {n: dict(vars(m)) for n, m in modules.items()}
    cls = bcbounds.objectives.InfoFunctional
    methods = {meth: cls.__dict__[meth] for _, _, meth in METHODS}
    # where each name is defined, then every module that imports it by name
    sites = {
        "maximize": ("search", "marton", "regions", "channel"),
        "entropy_of_array": ("kernel", "objectives", "marton", "channel", "counterexample"),
    }
    tracer = Tracer()
    tracer.install()
    try:
        for name, mods in sites.items():
            fn = before[f"bcbounds.{mods[0]}"][name]
            for m in modules.values():
                assert vars(m).get(name) is not fn, f"{m.__name__}.{name} not wrapped"
            for mod in mods:
                assert getattr(modules[f"bcbounds.{mod}"], name).__wrapped__ is fn, mod
        for meth, fn in methods.items():
            assert cls.__dict__[meth] is not fn
        c = bcbounds.Channel(workloads.bec_bsc_pair())
        bcbounds.marton.lambda_sr_global(c, 0.5, bcbounds.SearchConfig(restarts=2, max_iters=5))
    finally:
        tracer.uninstall()
    after = {n: dict(vars(m)) for n, m in _bcbounds_modules().items()}
    assert before.keys() == after.keys()
    for n in before:
        assert before[n].keys() == after[n].keys(), n
        for attr, value in before[n].items():
            assert after[n][attr] is value, f"{n}.{attr} not restored"
    for meth, fn in methods.items():
        assert cls.__dict__[meth] is fn
    summary = tracer.summary()
    assert summary["marton.lambda_sr_global"]["calls"] == 1
    assert summary["search.maximize"]["calls"] == 1
    assert summary["channel.capacity"]["calls"] == 2
    vg, calls = tracer.value_and_grad_in_searches()
    assert calls > 0 and vg == calls
    for row in summary.values():
        assert row["self_s"] <= row["s"] + 1e-9


def test_fails_without_the_package():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "separation", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
