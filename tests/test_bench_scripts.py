"""Smoke tests for ``scripts/bench_*.py``: each script's per-point function
runs once at a tiny point and returns an entry with the keys its BENCH
files record."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def scripts(monkeypatch):
    """Import a bench script by name, with ``scripts/`` on the path."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module


def test_bench_route_run_point(scripts):
    bench_route = scripts("bench_route")
    entry = bench_route.run_point(1024, 32, 0, 1, 1 << 29)
    assert set(entry) == {"n", "d", "seed", "route", "svd_s", "reference",
                          "gram", "sketch", "cholqr2", "measured_winner"}
    assert entry["reference"] == "thin_svd"
    for route in ("gram", "sketch", "cholqr2"):
        assert {"r1", "r2", "total_s", "orthogonalizer", "rank", "err",
                "peak_mib"} <= set(entry[route])
        assert entry[route]["err"] < 0.5


@pytest.fixture
def second_tree():
    """Remove the second copy of the package ``load_tree`` imports."""
    yield "levsketch_baseline"
    for name in [m for m in sys.modules
                 if m.split(".")[0] == "levsketch_baseline"]:
        del sys.modules[name]


def test_bench_stage1_run_point(scripts, second_tree):
    bench_stage1 = scripts("bench_stage1")
    trees = {"baseline": bench_stage1.load_tree(ROOT / "src", second_tree),
             "change": bench_stage1.levsketch}
    entry = bench_stage1.run_point(trees, 1000, 16, 256, 0, 1)
    assert set(entry) == {"n", "d", "r", "seed", "n_pad", "baseline",
                          "change", "pa_max_rel_diff", "speedup",
                          "fwht_inplace_s"}
    assert set(entry["change"]) == {"srht_s", "peak_mib", "group"}
    assert entry["n_pad"] == 1024 and entry["pa_max_rel_diff"] == 0.0
    assert list(bench_stage1.grid(32768 * 16 * 8)) == [
        (32768, 16, 3328, "r1"), (32768, 16, 128, "8d")]


def test_bench_exact_cross_run_point(scripts):
    bench_exact_cross = scripts("bench_exact_cross")
    entry = bench_exact_cross.run_point(1024, 16, 1, 1)
    assert set(entry) == {"n", "d", "seed", "kappa", "svd", "exact_plan",
                          "route", "rank", "pairs", "same_pairs",
                          "pair_value_max_rel_diff", "speedup"}
    assert set(entry["svd"]) == {"total_s", "svd_s", "search_s", "peak_mib"}
    assert set(entry["exact_plan"]) == {"total_s", "sketch_s", "search_s",
                                        "factorization_s", "scores_s",
                                        "gram_s", "peak_mib"}
    assert entry["same_pairs"] and entry["pairs"] > 0


def test_bench_cross_memory_worker(scripts):
    bench_cross_memory = scripts("bench_cross_memory")
    out = bench_cross_memory.worker(str(ROOT / "src"), 1024, 16, 1)
    assert set(out) == {"gram", "exact"}
    for run in out.values():
        assert set(run) == {"best_s", "peak_mib", "peak_n_vectors", "pairs",
                            "candidates", "digest", "pairs_digest", "route"}
    assert out["gram"]["pairs"] == out["exact"]["pairs"] > 0


def test_bench_tiles_run_point(scripts, monkeypatch):
    bench_tiles = scripts("bench_tiles")
    monkeypatch.setattr(bench_tiles, "MIN_SAMPLE_S", 0.0)
    entry = bench_tiles.run_point(2048, 16, 1)
    assert set(entry) == {"n", "d", "products", "gram_route", "exact_plan"}
    assert [p["k"] for p in entry["products"]] == [16]
    assert set(entry["products"][0]) == {"k", "rules", "times",
                                         "new_over_old"}
    for route in ("gram_route", "exact_plan"):
        assert set(entry[route]) == {"old", "new", "scores_max_rel_diff",
                                     "scores_identical", "new_over_old"}
        assert entry[route]["scores_max_rel_diff"] < 1e-13
