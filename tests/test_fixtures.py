import json

import pytest

import pspectral as ps
from pspectral.fixtures import spurious_pair, two_edges_sharing


def test_two_edges_sharing_shapes():
    G = two_edges_sharing(3, 1)
    assert G.n_vertices == 5 and G.num_edges == 2
    e, f = G.edges()
    assert len(set(e) & set(f)) == 1
    G = two_edges_sharing(4, 2)
    assert G.n_vertices == 6
    e, f = G.edges()
    assert len(set(e) & set(f)) == 2
    with pytest.raises(ValueError, match="shared count"):
        two_edges_sharing(3, 3)


def test_spurious_pair_residual_zero():
    for r in (3, 4, 5):
        G, lam, x = spurious_pair(r)
        assert ps.eigen_residual(G, float(r), lam, x) <= 1e-12


def test_catalog_covers_all_claims():
    cat = ps.fixture_catalog()
    names = {fx.name for fx in cat}
    assert len(names) == len(cat) == 7
    for fx in cat:
        assert fx.claim


def test_every_fixture_verifies():
    for fx in ps.fixture_catalog():
        out = ps.verify_fixture(fx)
        assert out["ok"], (fx.name, out)


def test_fixtures_identical_serial_and_parallel():
    for fx in ps.fixture_catalog():
        a = ps.verify_fixture(fx, ps.SolveOptions(tol=1e-11, restarts=12, seed=3,
                                                  parallel=False))
        b = ps.verify_fixture(fx, ps.SolveOptions(tol=1e-11, restarts=12, seed=3,
                                                  parallel=True))
        assert a == b, fx.name


def test_export_catalog(tmp_path):
    paths = ps.export_catalog(tmp_path)
    assert len(paths) == 7
    for path in paths:
        G = ps.read_file(path)
        assert G.num_edges > 0
    with open(tmp_path / "index.json", encoding="utf-8") as fh:
        index = json.load(fh)
    assert {rec["name"] for rec in index} == {fx.name for fx in ps.fixture_catalog()}
    # exported files parse back to the catalog graphs
    by_name = {fx.name: fx.graph for fx in ps.fixture_catalog()}
    for rec in index:
        assert ps.read_file(tmp_path / rec["file"]) == by_name[rec["name"]]


def test_two_triples_maximizers_are_restarts_that_met_tol():
    # a restart that stops at an earlier one's end point reports its stop
    # point, which is no maximizer: 23 "distinct maximizers" were counted
    # among 24 restarts before stopped restarts were left out
    fx = next(f for f in ps.fixture_catalog() if f.name == "two-triples-share-vertex-p2")
    opts = ps.SolveOptions(tol=1e-11, restarts=24, seed=7)
    met = sum(res <= opts.tol for _, _, res in ps.solve_restarts(fx.graph, fx.p, "max", opts))
    out = ps.verify_fixture(fx, opts)
    assert out["ok"] and 2 <= out["distinct_maximizers"] <= met < opts.restarts
