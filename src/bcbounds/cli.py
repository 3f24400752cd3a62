"""Command line interface for the broadcast-channel bound computations.

Every subcommand prints a JSON run report to stdout (or ``--out``) and a
wall-clock line to stderr, so reports are byte-reproducible for a fixed
seed and config. This module alone renders reports and CSV files from the
library's dataclasses; every check is a ``marton.Check`` written
by ``_check_dict``.  Exit codes: 0 success, 1 a check failed, 2 input or
validation error, 3 search budget exhausted without convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from .channel import (
    Channel,
    ComparisonVerdict,
    ProductChannel,
    classify,
    load_channel_file,
    save_channel_file,
)
from .counterexample import (
    UV_WITNESS_BITS,
    analytic_minimum,
    product_channel,
    verify_separation,
)
from .marton import (
    Check,
    build_lambda_curve,
    check_factorization,
    check_min_max_equality,
    marton_sum_rate,
)
from .regions import UvPoint, class_notes, region_support, uv_sum_rate
from .search import SearchConfig

RATIONAL_TOL = 1e-9
MAX_DENOMINATOR = 64

DEFAULT_DIRECTIONS = (
    (0.0, 1.0, 1.0),
    (1.0, 1.0, 1.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
)

REGION_KIND_FLAGS = {
    "semi-deterministic": "semi_deterministic",
    "more-capable": "more_capable",
}


class CommandError(Exception):
    """Input or validation failure mapped to exit code 2."""


def format_bits(value: float) -> str:
    """12-significant-digit rendering, annotated when close to a small rational."""
    text = f"{value:.12g}"
    frac = Fraction(value).limit_denominator(MAX_DENOMINATOR)
    if abs(value - float(frac)) <= RATIONAL_TOL:
        if frac.denominator == 1:
            text += f" (~ {frac.numerator})"
        else:
            text += f" (~ {frac.numerator}/{frac.denominator})"
    return text


def _config(args) -> SearchConfig:
    return SearchConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)


def _load(path: str):
    try:
        return load_channel_file(path)
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise CommandError(f"invalid channel file {path}: {exc}")


def _load_component(path: str) -> Channel:
    obj = _load(path)
    if isinstance(obj, ProductChannel):
        raise CommandError(f"{path} holds a product; a component channel is required")
    return obj


def _load_product(path: str) -> ProductChannel:
    obj = _load(path)
    if not isinstance(obj, ProductChannel):
        raise CommandError(f"{path} holds a plain channel; a product file is required")
    return obj


def _as_single(obj) -> Channel:
    return obj.flat if isinstance(obj, ProductChannel) else obj


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


def _report(command: str, cfg_echo: dict, results: dict, checks: list[Check]) -> dict:
    return {
        "command": command,
        "config": cfg_echo,
        "results": results,
        "checks": [_check_dict(c) for c in checks],
        "passed": all(c.passed for c in checks),
        "converged": bool(results.get("converged", True)),
    }


def _exit_code(report: dict) -> int:
    if not report["passed"]:
        return 1
    if not report["converged"]:
        return 3
    return 0


def _check_dict(check: Check) -> dict:
    return {
        "name": check.name,
        "computed_bits": check.computed,
        "computed_display": format_bits(check.computed),
        "target_bits": check.target,
        "target_display": format_bits(check.target),
        "tolerance": check.tolerance,
        "passed": check.passed,
    }


def _verdict_dict(v: ComparisonVerdict) -> dict:
    return {
        "verdict": {True: "not refuted", False: "no", None: "unknown"}[v.holds],
        "max_gap_bits": v.gap,
        "witness": None if v.witness is None else v.witness.tolist(),
        "converged": v.converged,
    }


def _uv_point_dict(p: UvPoint) -> dict:
    return {
        "r1_bound_bits": p.r1_bound,
        "r2_bound_bits": p.r2_bound,
        "sum_y_side_bits": p.sum_y_side,
        "sum_z_side_bits": p.sum_z_side,
        "sum_rate_bits": p.sum_rate,
    }


def _parse_directions(path: str | None) -> list[tuple[float, float, float]]:
    if path is None:
        return [tuple(w) for w in DEFAULT_DIRECTIONS]
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                parts = body.replace(",", " ").split()
                if len(parts) != 3:
                    raise CommandError(
                        f"{path}:{line_no}: expected three weights, got {body!r}"
                    )
                try:
                    w = tuple(float(p) for p in parts)
                except ValueError:
                    raise CommandError(
                        f"{path}:{line_no}: weights must be numbers, got {body!r}"
                    )
                if not all(math.isfinite(x) for x in w):
                    raise CommandError(
                        f"{path}:{line_no}: weights must be finite, got {body!r}"
                    )
                if min(w) < 0 or max(w) <= 0:
                    raise CommandError(
                        f"{path}:{line_no}: weights must be nonnegative, not all zero"
                    )
                out.append(w)
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}")
    if not out:
        raise CommandError(f"{path}: no directions found")
    return out


def _csv(header: str, rows) -> str:
    """A CSV text: the header line, then each row's fields as their reprs."""
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_classify(args) -> tuple[dict, dict, list]:
    chan = _as_single(_load(args.channel))
    cfg = _config(args)
    rep = classify(chan, cfg)
    verdicts = {
        "y_more_capable_than_z": rep.y_more_capable,
        "z_more_capable_than_y": rep.z_more_capable,
        "y_less_noisy_than_z": rep.y_less_noisy,
        "z_less_noisy_than_y": rep.z_less_noisy,
    }
    results = {key: _verdict_dict(v) for key, v in verdicts.items()}
    results["y_deterministic"] = rep.y_deterministic
    results["z_deterministic"] = rep.z_deterministic
    results["converged"] = all(v.converged for v in verdicts.values())
    return asdict(cfg), results, []


def _cmd_marton(args) -> tuple[dict, dict, list]:
    if args.curve_csv is not None and args.lambda_grid == 0:
        raise CommandError("--curve-csv needs a curve, and --lambda-grid 0 skips it")
    chan = _load(args.channel)
    cfg = _config(args)
    res = marton_sum_rate(chan, cfg)
    converged = res.converged
    results = {
        "sum_rate_bits": res.value,
        "sum_rate_display": format_bits(res.value),
        "lambda_star": res.lam_star,
        "scalar_evaluations": res.evaluations,
        "profile": dict(zip(("nu", "nv", "nw"), res.aux.shape)),
    }
    if args.lambda_grid > 0:
        n = args.lambda_grid
        lambdas = [k / n for k in range(n + 1)]
        curve = build_lambda_curve(chan, lambdas, cfg)
        converged = converged and all(s.converged for s in curve.samples)
        results["curve"] = [
            {
                "lambda": s.lam,
                "value_bits": s.value,
                "subgradient": s.slope,
                "converged": s.converged,
            }
            for s in curve.samples
        ]
        results["curve_checks"] = {"hyperplane_violations": curve.hyperplane_violations}
        if args.curve_csv is not None:
            samples = ((s.lam, s.value, s.slope, int(s.converged)) for s in curve.samples)
            _write_text(args.curve_csv, _csv("lambda,value_bits,subgradient,converged", samples))
            results["curve_csv"] = args.curve_csv
    results["converged"] = converged
    return asdict(cfg), results, []


def _cmd_uv(args) -> tuple[dict, dict, list]:
    chan = _as_single(_load(args.channel))
    cfg = _config(args)
    res = uv_sum_rate(chan, cfg)
    results = {
        "sum_rate_bits": res.value,
        "sum_rate_display": format_bits(res.value),
        "point": _uv_point_dict(res.point),
        "converged": res.converged,
    }
    return asdict(cfg), results, []


def _cmd_product(args) -> tuple[dict, dict, list]:
    c1 = _load_component(args.component1)
    c2 = _load_component(args.component2)
    if not 0.0 <= args.lam <= 1.0:
        raise CommandError(f"--lambda must lie in [0, 1], got {args.lam}")
    pc = ProductChannel(c1, c2)
    cfg = _config(args)
    results = {
        "nx": pc.flat.nx,
        "ny": pc.flat.ny,
        "nz": pc.flat.nz,
        "saved_to": args.save,
        "converged": True,
    }
    checks = []
    if args.save is not None:
        save_channel_file(args.save, pc)
    if args.check_factorization:
        fac = check_factorization(c1, c2, args.lam, cfg)
        results["factorization"] = {
            "lambda": fac.lam,
            "component_1_bits": fac.value_c1,
            "component_2_bits": fac.value_c2,
            "sum_bits": fac.value_c1 + fac.value_c2,
            "product_bits": fac.value_product,
            "gap_bits": fac.gap,
            "tolerance_bits": fac.check.tolerance,
            "factorizes": fac.check.passed,
            "deterministic_links": fac.deterministic_links,
            "converged": fac.converged,
        }
        results["converged"] = fac.converged
        checks.append(fac.check)
    return asdict(cfg), results, checks


def _sweep_kind(args) -> str:
    """Region kind of an ``outer`` or ``region`` command line."""
    if args.command == "region":
        return REGION_KIND_FLAGS[args.kind]
    return "product_outer"


def _cmd_sweep(args) -> tuple[dict, dict, list]:
    kind = _sweep_kind(args)
    pc = _load_product(args.product)
    mirrored = args.command == "outer" and args.mirror
    if mirrored:
        pc = ProductChannel(pc.c2, pc.c1)
    cfg = _config(args)
    directions = _parse_directions(args.directions)
    rows = []
    for w in directions:
        res = region_support(pc, kind, w, cfg, fix_r0=args.fix_r0)
        rows.append(
            {
                "weights": list(res.weights),
                "value_bits": res.value,
                "value_display": format_bits(res.value),
                "vertex": list(res.vertex),
                "rhs": [r for _, r in res.region.inequalities],
                "converged": res.converged,
            }
        )
    # every direction's polytope shares the kind's normals and tag
    region = res.region
    results = {
        "kind": kind,
        "mirrored": mirrored,
        "fix_r0": args.fix_r0,
        "sweep": rows,
        "region": {
            "tag": region.tag,
            "normals": [[float(x) for x in a] for a, _ in region.inequalities],
            "notes": class_notes(pc, kind, cfg),
        },
        "converged": all(r["converged"] for r in rows),
    }
    if args.sweep_csv is not None:
        rows_csv = ((*r["weights"], r["value_bits"], r["converged"]) for r in rows)
        _write_text(args.sweep_csv, _csv("w0,w1,w2,value,converged", rows_csv))
        results["sweep_csv"] = args.sweep_csv
    return asdict(cfg), results, []


def _cmd_verify_example(args) -> tuple[dict, dict, list]:
    rep = verify_separation(seed=args.seed)
    lam_star, marton_bits = analytic_minimum()
    flat = product_channel().flat
    results = {
        "channel": {"nx": flat.nx, "ny": flat.ny, "nz": flat.nz, "structure": "product"},
        "seed": args.seed,
        "analytic": {
            "lambda_star": lam_star,
            "marton_sum_rate_bits": marton_bits,
            "uv_witness_bits": UV_WITNESS_BITS,
            "gap_bits": UV_WITNESS_BITS - marton_bits,
        },
        "marton_numeric": {
            "value_bits": rep.marton.value,
            "lambda_star": rep.marton.lam_star,
            "evaluations": rep.marton.evaluations,
            "converged": rep.marton.converged,
        },
        "uv_witness_point": _uv_point_dict(rep.uv_witness_point),
        "uv_free": {"value_bits": rep.uv_free.value, "converged": rep.uv_free.converged},
        "converged": rep.converged,
    }
    return {"seed": args.seed}, results, rep.checks


def _cmd_minmax_check(args) -> tuple[dict, dict, list]:
    chan = _as_single(_load(args.channel))
    cfg = _config(args)
    try:
        rep = check_min_max_equality(chan, cfg, px_resolution=args.grid_resolution)
    except ValueError as exc:
        raise CommandError(str(exc))
    results = {
        "max_min_bits": rep.max_min,
        "max_min_max_bits": rep.max_min_max,
        "min_max_bits": rep.min_max,
        "max_pairwise_gap_bits": rep.max_pairwise_gap,
        "lambda_star": rep.lam_star,
        "converged": rep.converged,
    }
    # the min-max gap is never negative, so |gap| <= tolerance is gap <= tolerance
    checks = [Check.within("pairwise_gap", rep.max_pairwise_gap, 0.0, args.tolerance)]
    return asdict(cfg), results, checks


def _count(text: str) -> int:
    """argparse type of a search budget: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative(text: str) -> int:
    """argparse type of a curve grid or a seed: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _rate(text: str) -> float:
    """argparse type of a rate or a tolerance in bits: a finite number of at least 0."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return value


def _add_common(sp, budgets: bool = True, default_restarts: int = 16) -> None:
    sp.add_argument("--seed", type=_nonnegative, default=0, help="rng seed, at least 0 (default 0)")
    sp.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    if budgets:
        sp.add_argument(
            "--restarts",
            type=_count,
            default=default_restarts,
            help="search restarts (default %(default)s)",
        )
        sp.add_argument(
            "--max-iters",
            type=_count,
            default=SearchConfig().max_iters,
            help="ascent iteration cap (default %(default)s)",
        )


def _add_sweep_options(sp) -> None:
    sp.add_argument("product", help="product channel JSON file")
    sp.add_argument("--directions", default=None, help="file of weight triples, one per line")
    sp.add_argument("--sweep-csv", default=None, help="write the support sweep as CSV here")
    sp.add_argument("--fix-r0", type=_rate, default=None, help="pin the common rate during the sweep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcbounds",
        description="Capacity bounds for two-receiver broadcast channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="receiver comparison report for a channel")
    sp.add_argument("channel", help="channel JSON file")
    _add_common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser(
        "marton",
        help="weighted-sum-rate minimum and lambda curve, from component curves on a product",
    )
    sp.add_argument("channel", help="channel JSON file")
    sp.add_argument(
        "--lambda-grid",
        type=_nonnegative,
        default=10,
        help="number of curve intervals; 0 skips the curve (default 10)",
    )
    sp.add_argument("--curve-csv", default=None, help="write the lambda curve as CSV here")
    _add_common(sp)
    sp.set_defaults(func=_cmd_marton)

    sp = sub.add_parser("uv", help="single-letter two-auxiliary outer sum rate")
    sp.add_argument("channel", help="channel JSON file")
    _add_common(sp)
    sp.set_defaults(func=_cmd_uv)

    sp = sub.add_parser("product", help="combine two channels into a product file")
    sp.add_argument("component1", help="first component channel JSON file")
    sp.add_argument("component2", help="second component channel JSON file")
    sp.add_argument("--save", default=None, help="write the product channel JSON here")
    sp.add_argument(
        "--check-factorization",
        action="store_true",
        help=(
            "compare the product sum rate against the component sum; the "
            "product search runs max(8, restarts // 4) restarts, and every "
            "input-law polish ascent max(40, max-iters // 2) iterations"
        ),
    )
    sp.add_argument(
        "--lambda", dest="lam", type=float, default=0.5, help="weight for the check"
    )
    _add_common(sp)
    sp.set_defaults(func=_cmd_product)

    sp = sub.add_parser("outer", help="product-form outer bound support sweep")
    _add_sweep_options(sp)
    sp.add_argument(
        "--mirror",
        action="store_true",
        help="sweep the outer bound of the product with its components swapped",
    )
    _add_common(sp, default_restarts=8)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("region", help="specialized product region support sweep")
    _add_sweep_options(sp)
    sp.add_argument(
        "--kind",
        required=True,
        choices=sorted(REGION_KIND_FLAGS),
        help="which specialized region to sweep",
    )
    _add_common(sp, default_restarts=8)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser(
        "verify-example",
        help="build the separation example and check the headline numbers",
    )
    _add_common(sp, budgets=False)
    sp.set_defaults(func=_cmd_verify_example)

    sp = sub.add_parser(
        "minmax-check",
        help="three max/min orderings on a tiny channel",
        description=(
            "Three max/min orderings on a tiny channel. Derived budgets: the "
            "lambda searches run max(8, restarts // 2) restarts, each "
            "input-law polish ascent max(40, max-iters // 2) iterations, and the "
            "p(x) grid's searches max(4, restarts // 3) restarts of "
            "max(60, max-iters // 2) iterations."
        ),
    )
    sp.add_argument("channel", help="channel JSON file")
    sp.add_argument(
        "--grid-resolution",
        type=_count,
        default=12,
        help="input-distribution grid resolution (default 12)",
    )
    sp.add_argument(
        "--tolerance", type=_rate, default=0.02, help="pairwise gap tolerance"
    )
    _add_common(sp)
    sp.set_defaults(func=_cmd_minmax_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        # every command returns its config echo, results and checks
        report = _report(args.command, *args.func(args))
        _emit(report, args.out)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed_seconds={elapsed:.2f}", file=sys.stderr)
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
