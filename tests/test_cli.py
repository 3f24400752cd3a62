import json
import re

import numpy as np
import pytest

from bcbounds.channel import Channel, ProductChannel, save_channel_file
from bcbounds.cli import (
    CommandError,
    _config,
    _parse_directions,
    build_parser,
    format_bits,
    main,
)
from bcbounds.counterexample import component
from bcbounds.search import SearchConfig


CHECK_KEYS = {
    "name",
    "computed_bits",
    "computed_display",
    "target_bits",
    "target_display",
    "tolerance",
    "passed",
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _small_channel(rng):
    q = rng.random((2, 2, 2))
    q /= q.sum(axis=(1, 2), keepdims=True)
    return Channel(q)


@pytest.fixture
def comp_files(tmp_path):
    py = tmp_path / "comp_y.json"
    pz = tmp_path / "comp_z.json"
    save_channel_file(str(py), component("y"))
    save_channel_file(str(pz), component("z"))
    return str(py), str(pz)


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "small.json"
    save_channel_file(str(path), _small_channel(np.random.default_rng(0)))
    return str(path)


def test_format_bits_rational_annotation():
    assert format_bits(8 / 3) == "2.66666666667 (~ 8/3)"
    assert format_bits(44 / 15).endswith("(~ 44/15)")
    assert "(~" not in format_bits(np.log2(3))
    assert format_bits(0.0).startswith("0")


def test_parse_directions_default_and_file(tmp_path):
    default = _parse_directions(None)
    assert (0.0, 1.0, 1.0) in default
    path = tmp_path / "dirs.txt"
    path.write_text("# sum direction\n0 1 1\n\n1,0.5,0.5\n")
    parsed = _parse_directions(str(path))
    assert parsed == [(0.0, 1.0, 1.0), (1.0, 0.5, 0.5)]
    bad = tmp_path / "bad_dirs.txt"
    for text in ("0 1\n", "0 1 abc\n", "nan 1 1\n", "0 inf 1\n"):
        bad.write_text(text)
        with pytest.raises(CommandError, match=re.escape(f"{bad}:1: ")):
            _parse_directions(str(bad))


def test_parse_directions_rejects_bad_weights_and_empty_or_missing_files(tmp_path):
    bad = tmp_path / "dirs.txt"
    for text in ("0 -1 1\n", "0 0 0\n"):
        bad.write_text(text)
        message = f"{bad}:1: weights must be nonnegative, not all zero"
        with pytest.raises(CommandError, match=f"^{re.escape(message)}$"):
            _parse_directions(str(bad))
    bad.write_text("# a comment and a blank line only\n\n")
    with pytest.raises(CommandError, match=f"^{re.escape(f'{bad}: no directions found')}$"):
        _parse_directions(str(bad))
    missing = tmp_path / "missing.txt"
    with pytest.raises(CommandError, match=f"^{re.escape(f'cannot read {missing}: ')}"):
        _parse_directions(str(missing))


def test_classify_matches_structure(comp_files, capsys):
    code, out, err = _run(capsys, ["classify", comp_files[0], "--restarts", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "classify"
    assert set(rep) == {"command", "config", "results", "checks", "passed", "converged"}
    assert set(rep["config"]) == {"seed", "restarts", "max_iters"}
    assert rep["results"]["y_deterministic"] is True
    assert rep["results"]["z_deterministic"] is False
    assert "elapsed_seconds=" in err


def test_marton_report_and_curve_csv(small_file, tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    code, out, _ = _run(
        capsys,
        [
            "marton",
            small_file,
            "--restarts", "2",
            "--max-iters", "60",
            "--lambda-grid", "2",
            "--curve-csv", str(csv_path),
        ],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["sum_rate_bits"] >= 0
    assert len(rep["results"]["curve"]) == 3
    assert rep["results"]["curve_checks"] == {"hyperplane_violations": []}
    header = csv_path.read_text().splitlines()[0]
    assert header == "lambda,value_bits,subgradient,converged"


def test_marton_curve_samples_lie_on_or_above_every_line(tmp_path, capsys):
    # BEC(0.45)/BSC(0.1): the lambda = 0 search falls 0.019996 short of the
    # lambda = 1/4 line there, so the reported sample is that line
    my = np.array([[0.55, 0.0, 0.45], [0.0, 0.55, 0.45]])
    mz = np.array([[0.9, 0.1], [0.1, 0.9]])
    path = tmp_path / "bec_bsc.json"
    save_channel_file(str(path), Channel(np.einsum("xy,xz->xyz", my, mz)))
    argv = ["marton", str(path), "--lambda-grid", "4", "--restarts", "2", "--max-iters", "40"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    results = json.loads(out)["results"]
    curve = results["curve"]
    for s in curve:
        for other in curve:
            line = other["value_bits"] + other["subgradient"] * (s["lambda"] - other["lambda"])
            assert line <= s["value_bits"] + 1e-12
    assert curve[0]["value_bits"] >= 0.5702745
    flagged = results["curve_checks"]["hyperplane_violations"]
    assert [lam for _, lam, _ in flagged] == [0.0]


def test_uv_report(small_file, capsys):
    code, out, _ = _run(capsys, ["uv", small_file, "--restarts", "2"])
    assert code == 0
    rep = json.loads(out)
    assert set(rep["results"]) == {"sum_rate_bits", "sum_rate_display", "point", "converged"}
    point = rep["results"]["point"]
    assert point["sum_rate_bits"] <= point["sum_y_side_bits"] + 1e-9
    assert point["sum_rate_bits"] <= point["sum_z_side_bits"] + 1e-9


def test_product_save_and_outer_sweep(comp_files, tmp_path, capsys):
    prod_path = tmp_path / "prod.json"
    code, out, _ = _run(
        capsys,
        ["product", comp_files[0], comp_files[1], "--save", str(prod_path)],
    )
    assert code == 0
    assert json.loads(out)["results"] == {
        "nx": 16,
        "ny": 12,
        "nz": 12,
        "saved_to": str(prod_path),
        "converged": True,
    }

    dirs = tmp_path / "dirs.txt"
    dirs.write_text("0 1 1\n")
    sweep_csv = tmp_path / "sweep.csv"
    code, out, _ = _run(
        capsys,
        [
            "outer",
            str(prod_path),
            "--directions", str(dirs),
            "--sweep-csv", str(sweep_csv),
            "--restarts", "2",
            "--max-iters", "80",
        ],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["kind"] == "product_outer"
    assert rep["results"]["mirrored"] is False
    (row,) = rep["results"]["sweep"]
    region = rep["results"]["region"]
    assert set(region) == {"tag", "normals", "notes"}
    assert set(row) == {"weights", "value_bits", "value_display", "vertex", "rhs", "converged"}
    # export shape: three float weights per normal and a float bound per
    # normal in each sweep row; the first normal bounds R0 alone
    assert region["normals"] and len(row["rhs"]) == len(region["normals"])
    assert all(len(a) == 3 and all(isinstance(x, float) for x in a) for a in region["normals"])
    assert all(isinstance(r, float) for r in row["rhs"])
    assert region["normals"][0] == [1.0, 0.0, 0.0]
    lines = sweep_csv.read_text().splitlines()
    assert lines[0] == "w0,w1,w2,value,converged"
    assert len(lines) == 2


def _assert_vertices_meet_their_rows(results):
    # every sweep row's vertex lies in its own polytope: R >= 0 and
    # normal . R <= rhs for each of the row's right-hand sides
    normals = np.asarray(results["region"]["normals"])
    for row in results["sweep"]:
        vertex = np.asarray(row["vertex"])
        assert (vertex >= -1e-12).all()
        assert (normals @ vertex <= np.asarray(row["rhs"]) + 1e-12).all(), row["weights"]


def test_outer_mirror_values_and_vertices_stay_inside_the_bounds(comp_files, tmp_path, capsys):
    # on the worked product with R0 pinned to 0, the mirror (the outer
    # bound of the swapped product) reaches the sum directions' cap 8/3
    # and each receiver's capacity 2 in the single-rate directions
    prod_path = tmp_path / "prod.json"
    _run(capsys, ["product", comp_files[0], comp_files[1], "--save", str(prod_path)])
    argv = ["outer", str(prod_path), "--mirror", "--fix-r0", "0"]
    code, out, _ = _run(capsys, argv + ["--restarts", "2", "--max-iters", "60"])
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["kind"], results["mirrored"]) == ("product_outer", True)
    bounds = {(0.0, 1.0, 1.0): 8 / 3, (1.0, 1.0, 1.0): 8 / 3}
    bounds.update({(0.0, 1.0, 0.0): 2.0, (0.0, 0.0, 1.0): 2.0})
    assert {tuple(row["weights"]) for row in results["sweep"]} == set(bounds)
    for row in results["sweep"]:
        assert row["value_bits"] == pytest.approx(bounds[tuple(row["weights"])], abs=1e-12)
        assert row["vertex"][0] <= 1e-12
    _assert_vertices_meet_their_rows(results)


@pytest.mark.parametrize("mirror", [[], ["--mirror"]], ids=["plain", "mirror"])
def test_outer_sweep_vertices_meet_their_own_rows(tmp_path, capsys, mirror):
    # on this random product each direction's search ends at its own
    # auxiliary, whose polytope differs from the other directions'; the
    # (0,1,0) and (0,0,1) vertices lie 0.0086 and 0.00058 bits outside
    # the best direction's polytope
    rng = np.random.default_rng(3)
    prod_path = tmp_path / "rp.json"
    save_channel_file(str(prod_path), ProductChannel(_small_channel(rng), _small_channel(rng)))
    argv = ["outer", str(prod_path), "--restarts", "2", "--max-iters", "60"] + mirror
    code, out, _ = _run(capsys, argv)
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results["sweep"]) == 4
    _assert_vertices_meet_their_rows(results)


def test_product_factorization_check(comp_files, capsys):
    code, out, _ = _run(
        capsys,
        [
            "product",
            comp_files[0], comp_files[1],
            "--check-factorization",
            "--lambda", "0.5",
            "--restarts", "2",
            "--max-iters", "80",
        ],
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["checks"][0]["name"] == "factorization_gap"
    assert all(set(c) == CHECK_KEYS for c in rep["checks"])
    assert rep["passed"] is True


def test_region_kind_flag(comp_files, tmp_path, capsys):
    prod_path = tmp_path / "prod.json"
    _run(capsys, ["product", comp_files[0], comp_files[1], "--save", str(prod_path)])
    dirs = tmp_path / "dirs.txt"
    dirs.write_text("0 1 1\n")
    code, out, _ = _run(
        capsys,
        [
            "region",
            str(prod_path),
            "--kind", "semi-deterministic",
            "--directions", str(dirs),
            "--restarts", "2",
            "--max-iters", "80",
        ],
    )
    assert code == 0
    assert json.loads(out)["results"]["kind"] == "semi_deterministic"


def test_minmax_check_small(small_file, capsys):
    code, out, _ = _run(
        capsys,
        [
            "minmax-check",
            small_file,
            "--grid-resolution", "6",
            "--restarts", "2",
            "--max-iters", "80",
        ],
    )
    rep = json.loads(out)
    assert code in (0, 1)
    assert rep["checks"][0]["name"] == "pairwise_gap"
    assert all(set(c) == CHECK_KEYS for c in rep["checks"])
    res = rep["results"]
    assert {"max_min_bits", "max_min_max_bits", "min_max_bits"} <= set(res)
    assert res["max_pairwise_gap_bits"] >= 0


def test_minmax_check_on_a_four_input_channel_exits_2(comp_files, capsys):
    code, out, err = _run(capsys, ["minmax-check", comp_files[0], "--restarts", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: min-max check is restricted to nx, ny, nz <= 3\n")


def test_failed_check_exits_1_and_exhausted_budget_exits_3(small_file, capsys):
    # a zero gap tolerance fails on any numeric gap between the orderings
    code, out, _ = _run(
        capsys,
        [
            "minmax-check",
            small_file,
            "--grid-resolution", "6",
            "--restarts", "2",
            "--max-iters", "80",
            "--tolerance", "0",
        ],
    )
    rep = json.loads(out)
    assert rep["results"]["max_pairwise_gap_bits"] > 0
    assert (code, rep["passed"]) == (1, False)
    # one ascent iteration per restart lets no receiver-comparison search converge
    code, out, _ = _run(capsys, ["classify", small_file, "--restarts", "2", "--max-iters", "1"])
    rep = json.loads(out)
    assert (code, rep["passed"], rep["converged"]) == (3, True, False)


def test_verify_example_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code1, _, _ = _run(capsys, ["verify-example", "--out", str(out1)])
    code2, _, _ = _run(capsys, ["verify-example", "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["passed"] is True
    names = [c["name"] for c in rep["checks"]]
    assert "separation_gap" in names
    assert all(set(c) == CHECK_KEYS for c in rep["checks"])


def test_out_flag_writes_file_not_stdout(small_file, tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, out, _ = _run(
        capsys, ["uv", small_file, "--restarts", "2", "--out", str(out_path)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["command"] == "uv"


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["classify", str(path)])
    assert code == 2
    assert "error:" in err


def test_nonstochastic_channel_exits_2(tmp_path, capsys):
    path = tmp_path / "nonstoch.json"
    path.write_text(json.dumps({"q": [[[0.5, 0.2], [0.1, 0.1]]]}))
    code, _, err = _run(capsys, ["classify", str(path)])
    assert code == 2
    assert "error:" in err


def test_component_where_product_expected_exits_2(small_file, capsys):
    code, _, err = _run(capsys, ["outer", small_file, "--restarts", "2"])
    assert code == 2
    assert "error:" in err


def test_product_as_component_input_exits_2(comp_files, tmp_path, capsys):
    prod_path = tmp_path / "prod.json"
    _run(capsys, ["product", comp_files[0], comp_files[1], "--save", str(prod_path)])
    code, _, err = _run(capsys, ["product", str(prod_path), comp_files[1]])
    assert code == 2
    assert "error:" in err


def test_lambda_out_of_range_exits_2(comp_files, capsys):
    code, _, _ = _run(
        capsys,
        [
            "product",
            comp_files[0], comp_files[1],
            "--check-factorization",
            "--lambda", "1.5",
        ],
    )
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["classify", "/no/such/file.json"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--fix-r0", "nan"],
        ["--fix-r0", "inf"],
        ["--fix-r0", "-1"],
        ["--restarts", "0"],
        ["--restarts", "-5"],
        ["--max-iters", "0"],
        ["--seed", "-1"],
    ],
)
def test_bad_budget_or_pin_exits_2(comp_files, tmp_path, capsys, argv):
    prod_path = tmp_path / "prod.json"
    _run(capsys, ["product", comp_files[0], comp_files[1], "--save", str(prod_path)])
    with pytest.raises(SystemExit) as exc:
        main(["outer", str(prod_path), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["minmax-check", "--tolerance", "nan"],
        ["minmax-check", "--tolerance", "-0.5"],
        ["minmax-check", "--grid-resolution", "0"],
        ["marton", "--lambda-grid", "-1"],
        ["region", "--kind", "inner"],
    ],
)
def test_bad_grid_or_tolerance_exits_2(small_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], small_file, *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_budget_defaults_are_the_search_config(small_file):
    parser = build_parser()
    assert _config(parser.parse_args(["uv", small_file])) == SearchConfig(restarts=16)
    cfg = _config(parser.parse_args(["outer", small_file, "--seed", "3"]))
    assert cfg == SearchConfig(restarts=8, seed=3)
    cfg = _config(parser.parse_args(["marton", small_file, "--restarts", "1", "--max-iters", "1"]))
    assert cfg == SearchConfig(restarts=1, max_iters=1)
