import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pspectral as ps
from pspectral.cli import main


@pytest.fixture()
def k33(tmp_path):
    path = tmp_path / "k33.json"
    ps.write_file(ps.single_edge(3), path)
    return str(path)


@pytest.fixture()
def c4(tmp_path):
    path = tmp_path / "c4.json"
    ps.write_file(ps.cycle(2, 4), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_max(capsys, k33):
    code, out, _ = run(capsys, ["compute", "--input", k33, "--p", "2", "--target", "max"])
    assert "lambda = 1.1547005" in out
    assert code == 2  # 1 < p < r: best-effort by definition


def test_compute_converged_exit_zero(capsys, k33):
    code, out, _ = run(capsys, ["compute", "--input", k33, "--p", "3"])
    assert code == 0
    assert "status = converged" in out


def test_compute_json_reports_the_gap(capsys, k33):
    # the maximum's Frank-Wolfe gap at p >= r; null where none is defined
    for p, finite in (("3", True), ("2", False)):
        code, out, _ = run(capsys, ["compute", "--input", k33, "--p", p, "--json"])
        results = json.loads(out)["results"]
        if finite:
            assert abs(results["gap"]) <= 1e-10 * max(1.0, results["value"])
        else:
            assert results["gap"] is None


def test_compute_min(capsys, c4):
    code, out, _ = run(capsys, ["compute", "--input", c4, "--p", "2", "--target", "min"])
    assert "lambda_min = -2.0000000" in out
    assert code == 0


def test_compute_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.json"
    ps.write_file(ps.WeightedHypergraph(2, 3, {}), path)
    code, out, _ = run(capsys, ["compute", "--input", str(path), "--p", "2"])
    assert "lambda = 0.0000000" in out
    assert code == 0


def test_compute_vector_has_12_digits(capsys, k33):
    code, out, _ = run(capsys, ["compute", "--input", k33, "--p", "3", "--vector"])
    line = [ln for ln in out.splitlines() if ln.startswith("vector")][0]
    assert "0.693361274351" in line


def test_bad_file_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 3, "vertices": 3, "edges": [{"verts": [0, 0, 1]}]}')
    code, _, err = run(capsys, ["compute", "--input", str(bad), "--p", "2"])
    assert code == 1
    assert "repeated vertex" in err


def test_huge_total_weight_exits_one_at_once(tmp_path):
    # 2! * 1e308 overflows the edge polynomial; the solve ran past 60 s
    path = tmp_path / "huge.json"
    path.write_text('{"rank": 2, "vertices": 2, "edges": [{"verts": [0, 1], "w": 1e308}]}')
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ps.__file__)))
    out = subprocess.run([sys.executable, "-m", "pspectral.cli", "compute", "--input",
                          str(path), "--p", "2"], capture_output=True, text=True,
                         env=env, timeout=30)
    assert out.returncode == 1
    assert "sum to 1e+308" in out.stderr


def test_weight_whose_euler_sum_overflows_exits_one(tmp_path):
    # 4! * 7e306 is finite, but the solver's x . grad = 4 * value is not: the
    # graph was accepted, and the solve warned of an overflow in matmul, ran
    # 32 restarts of 100,000 iterations for about 2 minutes and exited 2
    doc = '{"rank": 4, "vertices": 4, "edges": [{"verts": [0, 1, 2, 3], "w": 7e306}]}'
    with pytest.raises(ValueError, match=r"4 \* 4! times that is not finite"):
        ps.from_json(doc)
    path = tmp_path / "euler.json"
    path.write_text(doc)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ps.__file__)))
    out = subprocess.run([sys.executable, "-m", "pspectral.cli", "compute", "--input",
                          str(path), "--p", "5"], capture_output=True, text=True,
                         env=env, timeout=30)
    assert out.returncode == 1 and out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "sum to 7e+306" in lines[0]


def test_non_real_json_weights_exit_one(capsys, tmp_path):
    # a bare float() read "1.5" as 1.5 and true as 1.0, and [1] escaped as a
    # TypeError traceback
    for w in ("[1]", '"1.5"', "true"):
        path = tmp_path / "w.json"
        path.write_text('{"rank": 2, "vertices": 2, "edges": [{"verts": [0, 1], "w": %s}]}' % w)
        code, _, err = run(capsys, ["compute", "--input", str(path), "--p", "2"])
        assert code == 1, w
        assert "edge (0, 1) has weight" in err and "not a real number" in err, w


def test_non_finite_or_non_integer_input_exit_one(capsys, tmp_path):
    for name, body, msg in [
            ("nan.json", '{"rank": 2, "vertices": 2, "edges": [{"verts": [0, 1], "w": NaN}]}',
             "non-finite weight"),
            ("inf.txt", "2 2 1\n0 1 inf\n", "non-finite weight"),
            ("float.json", '{"rank": 2.7, "vertices": 3.9, "edges": [{"verts": [0.6, 1.2]}]}',
             "must be an integer")]:
        path = tmp_path / name
        path.write_text(body)
        code, _, err = run(capsys, ["compute", "--input", str(path), "--p", "2"])
        assert code == 1, name
        assert msg in err, name


def test_non_finite_tol_or_negative_seed_exits_one(capsys, c4):
    # --tol inf would stop every restart at once and report converged
    for tol in ("inf", "nan"):
        code, out, err = run(capsys, ["compute", "--input", c4, "--p", "2", "--tol", tol])
        assert code == 1 and out == "" and "tolerance must be positive and finite" in err, tol
    code, out, err = run(capsys, ["compute", "--input", c4, "--p", "2", "--seed", "-1"])
    assert code == 1 and out == "" and "seed must be nonnegative" in err


def test_oracle_negative_seed_exits_one(capsys, c4):
    code, out, err = run(capsys, ["oracle", "--input", c4, "--samples", "200", "--seed", "-1"])
    assert code == 1 and out == "" and "seed must be nonnegative" in err


def test_usage_error_exit_one(capsys):
    code, _, _ = run(capsys, ["compute", "--p", "2"])
    assert code == 1
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 1


def _first_call(argv):
    """Exit code and stdout of `argv` run as the first call of a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ps.__file__)))
    out = subprocess.run([sys.executable, "-m", "pspectral.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    return out.returncode, out.stdout


def test_reused_parser_matches_a_first_call(capsys, c4, monkeypatch):
    from pspectral import cli
    compute = ["compute", "--input", c4, "--p", "2", "--json"]
    usage = ["compute", "--p", "2"]
    bounds = ["bounds", "--input", c4, "--p", "2", "--json"]
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    cli._parser.cache_clear()
    handled = []
    real_bounds = cli.cmd_bounds
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: handled.append(1) or real_bounds(args))
    seen = [run(capsys, argv)[:2] for argv in (compute, usage, bounds, compute)]
    assert builds == [1]
    assert handled == [1]  # a replaced handler runs with the cached parser
    expected = [_first_call(argv) for argv in (compute, usage, bounds)]
    assert seen == expected + expected[:1]
    assert seen[1][0] == 1


def test_json_determinism_serial_parallel(capsys, k33):
    argv = ["compute", "--input", k33, "--p", "3", "--seed", "7", "--json", "--vector"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    _, out3, _ = run(capsys, argv + ["--parallel"])
    rep1, rep3 = json.loads(out1), json.loads(out3)
    assert rep1["results"]["value"] == rep3["results"]["value"]
    assert rep1["results"]["vector"] == rep3["results"]["vector"]


def test_bounds_table(capsys, c4):
    code, out, _ = run(capsys, ["bounds", "--input", c4, "--p", "2", "--json"])
    assert code == 0
    rep = json.loads(out)
    rows = {r["name"]: r for r in rep["results"]["bounds"]}
    assert rows["size-lower"]["bound"] == pytest.approx(2.0)
    assert all(r["slack"] is None or not r["applies"] or r["slack"] >= -1e-9
               for r in rows.values())


def test_bounds_solves_the_maximum_once_at_odd_rank(capsys, tmp_path, monkeypatch):
    from pspectral import cli, solver
    path = tmp_path / "c37.json"
    ps.write_file(ps.cycle(3, 7), path)
    calls = []
    real = solver.lambda_max
    counting = lambda *a, **k: calls.append(a[1]) or real(*a, **k)
    monkeypatch.setattr(cli, "lambda_max", counting)
    monkeypatch.setattr(solver, "lambda_max", counting)
    code, out, _ = run(capsys, ["bounds", "--input", str(path), "--p", "2", "--json"])
    assert code != 1 and calls == [2.0]
    rep = json.loads(out)
    assert rep["results"]["lambda_min"] == -rep["results"]["lambda"]


def test_bounds_solves_the_maximum_once_with_an_odd_transversal(capsys, c4, monkeypatch):
    from pspectral import cli, solver
    assert ps.odd_transversal(ps.cycle(2, 4)) is not None
    calls = []
    real = solver.lambda_max
    counting = lambda *a, **k: calls.append(a[1]) or real(*a, **k)
    monkeypatch.setattr(cli, "lambda_max", counting)
    monkeypatch.setattr(solver, "lambda_max", counting)
    code, out, _ = run(capsys, ["bounds", "--input", c4, "--p", "2", "--json"])
    assert code == 0 and calls == [2.0]
    monkeypatch.undo()
    rep = json.loads(out)
    assert rep["results"]["lambda_min"] == ps.lambda_min(ps.cycle(2, 4), 2.0).value


def test_check_properties(capsys, tmp_path, c4, k33):
    code, out, _ = run(capsys, ["check", "--input", c4, "--property", "connected"])
    assert code == 0 and out.splitlines()[0] == "true"
    code, out, _ = run(capsys, ["check", "--input", c4, "--property", "odd-transversal"])
    assert code == 0 and "witness" in out
    code, out, _ = run(capsys, ["check", "--input", k33, "--property", "k-tight",
                                "--k", "2"])
    assert code == 0
    two = tmp_path / "two.json"
    ps.write_file(ps.from_edge_list(3, 5, [(0, 1, 2), (2, 3, 4)]), two)
    code, out, _ = run(capsys, ["check", "--input", str(two), "--property", "k-tight",
                                "--k", "2"])
    assert code == 2 and out.splitlines()[0] == "false" and "witness" in out
    code, out, _ = run(capsys, ["check", "--input", str(two), "--property",
                                "equivalence-classes"])
    assert code == 0 and "classes" in out
    code, out, _ = run(capsys, ["check", "--input", c4, "--property", "chromatic"])
    assert code == 0 and "chromatic_number = 2" in out
    # every property of the table, with its results keys; four need --k
    needs_k = ("k-tight", "k-linear", "k-set-regular", "steiner")
    extra = {"equivalence-classes": {"classes"}, "chromatic": {"chromatic_number"}}
    for prop in ("connected", "k-tight", "odd-transversal", "even-transversal", "k-linear",
                 "k-set-regular", "steiner", "equivalence-classes", "chromatic"):
        k = ["--k", "2"] if prop in needs_k else []
        code, out, _ = run(capsys, ["check", "--input", k33, "--property", prop, "--json", *k])
        results = json.loads(out)["results"]
        assert code == 0 and results["value"] is True, prop
        assert set(results) == {"value", "witness"} | extra.get(prop, set()), prop
        if prop in needs_k:
            code, out, err = run(capsys, ["check", "--input", k33, "--property", prop])
            assert code == 1 and out == "" and f"--k is required for {prop}" in err, prop


def test_check_takes_no_solver_flags(capsys, c4):
    code, out, _ = run(capsys, ["check", "--input", c4, "--property", "connected", "--json"])
    assert code == 0
    assert json.loads(out)["args"] == {"cmd": "check", "input": c4, "property": "connected"}
    for flag, value in (("--p", "2"), ("--seed", "1"), ("--tol", "1e-9"), ("--restarts", "4")):
        code, _, _ = run(capsys, ["check", "--input", c4, "--property", "connected",
                                  flag, value])
        assert code == 1
    # the oracle samples with --p and --seed and never solves
    code, out, _ = run(capsys, ["oracle", "--input", c4, "--samples", "200", "--json"])
    assert code == 0
    assert json.loads(out)["args"] == {"cmd": "oracle", "input": c4, "samples": 200,
                                       "seed": 0, "target": "max"}
    for flag, value in (("--tol", "1e-9"), ("--restarts", "4")):
        code, _, _ = run(capsys, ["oracle", "--input", c4, "--samples", "200", flag, value])
        assert code == 1
    # the curve solves along its own grid and never reads --p
    curve = ["curve", "--input", c4, "--p-from", "2", "--p-to", "3", "--steps", "2", "--json"]
    code, out, _ = run(capsys, curve)
    assert code == 0 and "p" not in json.loads(out)["args"]
    code, out, _ = run(capsys, curve + ["--p", "7"])
    assert code == 1 and out == ""
    # flags match only in full: no prefix stands for a longer flag
    for argv in (["compute", "--input", c4, "--vec"],
                 ["compute", "--input", c4, "--res", "3"]):
        code, out, _ = run(capsys, argv)
        assert code == 1 and out == "", argv
    code, _, err = run(capsys, ["check", "--input", c4, "--property", "connected",
                                "--p", "2"])
    assert code == 1 and "unrecognized arguments: --p 2" in err


@pytest.mark.parametrize("argv", [
    ["compute", "--p", "0.5"],
    ["bounds", "--p", "0.5"],
    ["oracle", "--p", "0.5", "--samples", "50"],
    ["curve", "--p-from", "0.5", "--p-to", "2", "--steps", "2"],
    ["check", "--property", "k-tight", "--k", "0"],
    ["construct", "--family", "cycle", "--r", "3", "--n", "3"],
    ["random", "--r", "3", "--n", "6", "--prob", "0.5", "--q", "0.5"],
    pytest.param(["curve", "--p-from", "2", "--p-to", "3", "--steps", "0"], id="curve-steps"),
    pytest.param(["curve", "--p-from", "3", "--p-to", "2", "--steps", "2"], id="curve-p-to"),
    pytest.param(["compute", "--input", "{tmp}/missing.json"], id="unreadable-input"),
    pytest.param(["construct", "--family", "cycle", "--r", "2", "--n", "4", "--out", "{tmp}"],
                 id="unwritable-out"),
], ids=lambda argv: argv[0])
def test_a_refused_input_is_one_error_line(capsys, tmp_path, c4, argv):
    # a ValueError from the input, a flag or the library exits 1 with one
    # line and no report; "{tmp}" stands for a fresh directory
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if argv[0] == "construct" and "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "out.json")]
    elif argv[0] not in ("construct", "random") and "--input" not in argv:
        argv = [argv[0], "--input", c4, *argv[1:]]
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, argv + json_flag)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_curve_csv(capsys, k33):
    code, out, _ = run(capsys, ["curve", "--input", k33, "--p-from", "1",
                                "--p-to", "6", "--steps", "11"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,lambda,lambda_min,h,f"
    lams = [float(ln.split(",")[1]) for ln in lines[1:]]
    ref = [6 / 3 ** (3 / p) for p in np.linspace(1, 6, 11)]
    assert lams == pytest.approx(ref, abs=1e-6)
    assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))


def test_oracle_cmd(capsys, c4):
    code, out, _ = run(capsys, ["oracle", "--input", c4, "--p", "2",
                                "--target", "min", "--samples", "4000"])
    assert code == 0
    assert "oracle = -2.00" in out


def test_oracle_rejects_fewer_than_one_sample(capsys, c4):
    # the sampler used to raise such a count to 100 silently
    for samples in ("0", "-5"):
        code, out, err = run(capsys, ["oracle", "--input", c4, "--p", "2",
                                      "--samples", samples, "--json"])
        assert code == 1 and out == "" and "--samples" in err, samples


def test_construct_families(capsys, tmp_path):
    out_path = str(tmp_path / "b.json")
    code, out, _ = run(capsys, ["construct", "--family", "beta-star", "--r", "3",
                                "--k", "4", "--out", out_path])
    assert code == 0
    assert ps.read_file(out_path) == ps.beta_star(3, 4)
    code, _, err = run(capsys, ["construct", "--family", "cycle", "--r", "3",
                                "--n", "3", "--out", out_path])
    assert code == 1 and "n > r" in err
    out_txt = str(tmp_path / "t.txt")
    code, _, _ = run(capsys, ["construct", "--family", "turan", "--n", "6",
                              "--k", "3", "--out", out_txt, "--format", "text"])
    assert code == 0
    assert ps.read_file(out_txt) == ps.turan(6, 3)
    code, _, _ = run(capsys, ["construct", "--family", "multipartite", "--r", "3",
                              "--parts", "2,2,2", "--out", out_path])
    assert code == 0
    assert ps.read_file(out_path) == ps.complete_multipartite(3, [2, 2, 2])
    code, _, err = run(capsys, ["construct", "--family", "multipartite", "--r", "3",
                                "--parts", "2,x", "--out", out_path])
    assert code == 1 and "--parts" in err  # was an uncaught ValueError
    # a missing parameter is named; these printed a TypeError's text
    for argv, name in ((["--family", "complete", "--r", "3"], "'n'"),
                       (["--family", "t-star", "--r", "3", "--n", "5"], "'t'"),
                       (["--family", "multipartite", "--r", "3", "--parts", ""], "'parts'")):
        code, _, err = run(capsys, ["construct", *argv, "--out", out_path])
        assert code == 1 and "missing parameter " + name in err, argv


def test_random_cmd(capsys):
    code, out, _ = run(capsys, ["random", "--r", "3", "--n", "12", "--prob", "0.5",
                                "--q", "2", "--trials", "2", "--seed", "1", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["results"]["trials"]) == 2
    _, out2, _ = run(capsys, ["random", "--r", "3", "--n", "12", "--prob", "0.5",
                              "--q", "2", "--trials", "2", "--seed", "1", "--json"])
    assert out == out2  # byte-identical reruns


def test_random_rejects_a_zero_probability(capsys):
    # the reported ratio divides by prob * n^(r - r/q)
    code, out, err = run(capsys, ["random", "--r", "2", "--n", "4", "--prob", "0",
                                  "--q", "2"])
    assert code == 1 and out == "" and "--prob must be positive" in err


def test_random_rejects_fewer_than_one_trial(capsys):
    for trials in ("0", "-1"):
        code, out, err = run(capsys, ["random", "--r", "3", "--n", "6", "--prob", "0.5",
                                      "--q", "2", "--trials", trials, "--json"])
        assert code == 1 and out == "" and "--trials" in err, trials
