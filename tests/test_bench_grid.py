"""Tests for ``scripts/bench_grid.py``: its entries use the CLI's schema,
and its workers compare source trees."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from levsketch import cli
from levsketch.io import save_matrix

ROOT = Path(__file__).resolve().parent.parent
OPS = {"leverage_default", "leverage_exact", "leverage_r1", "leverage_8d",
       "cross_default", "cross_exact", "srht_r1", "srht_8d", "fwht"}


@pytest.fixture
def bench_grid(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("bench_grid")


def test_worker_entries_match_the_cli_documents(bench_grid, tmp_path):
    # at 1024 x 4 every op applies: default_r1 = 555 and 8 d = 32 are < n
    n, d = 1024, 4
    run = bench_grid.worker(str(ROOT / "src"), n, d, 0, 1)
    assert set(run["ops"]) == OPS
    path, out = str(tmp_path / "a.levs"), str(tmp_path / "doc.json")
    save_matrix(bench_grid.planted_input(n, d, 0), path)
    argv = {"leverage_default": ["leverage"],
            "leverage_exact": ["leverage", "--r1", str(n), "--r2", str(d)],
            "leverage_r1": ["leverage", "--r1", "555"],
            "leverage_8d": ["leverage", "--r1", str(8 * d)],
            "cross_default": ["cross"],
            "cross_exact": ["cross", "--exact-pairs"]}
    for op, args in argv.items():
        assert cli.main([*args, path, "--seed", "0", "-o", out]) == 0
        doc = json.loads(Path(out).read_text())
        got = run["ops"][op]
        assert got["params"] == doc["params"], op
        assert set(got["timings_ms"]) == set(doc["timings_ms"]), op
    ops = run["ops"]
    assert ops["leverage_exact"]["err"] < 1e-10
    assert ops["cross_exact"]["pair_recall"] == 1.0
    assert ops["srht_8d"]["params"]["r1"] == 8 * d


def test_main_compares_trees_in_workers(bench_grid, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_grid, "GRID_N", (1024,))
    monkeypatch.setattr(bench_grid, "GRID_D", (8, 16))
    monkeypatch.setattr(bench_grid, "SEEDS", (0,))
    out = tmp_path / "grid.json"
    src = str(ROOT / "src")
    assert bench_grid.main(["--out", str(out), "--reps", "1",
                            "--tree", f"a={src}", "--tree", f"b={src}"]) == 0
    doc = json.loads(out.read_text())
    assert doc["trees"] == ["a", "b"] and set(doc["environment"]) == {"a", "b"}
    entries = doc["entries"]
    assert [(e["n"], e["d"], e["seed"]) for e in entries] == [
        (1024, 8, 0), (1024, 16, 0)]
    assert [e["first"] for e in entries] == ["a", "b"]
    for e in entries:
        assert set(e["trees"]) == {"a", "b"}
        assert set(e["same_output"]) == set(e["trees"]["a"]["ops"])
        assert all(e["same_output"].values())


def test_measure_runs_rounds_of_the_whole_table(bench_grid):
    # a slow phase of the host that lasts one op's calls cannot set that
    # op's best time: the ops take turns, round after round, and each keeps
    # its best; one more call per op is traced and summarized
    calls = []

    def op(name):
        def call():
            calls.append(name)
            return len(calls)
        return call, lambda out: {"call": out}, lambda out: {"out": out}

    records = bench_grid.measure({"a": op("a"), "b": op("b")}, reps=3)
    assert calls == ["a", "b"] * 4
    assert set(records) == {"a", "b"}
    assert records["b"]["out"] == 8
    assert records["a"]["timings_ms"]["call"] in (1, 3, 5)
    assert {"total_s", "peak_mib"} <= set(records["a"])
