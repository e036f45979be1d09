"""Tests of the benchmark's own code (not of levsketch).

Run from the repository root:  python3 -m pytest -q benchmark
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import levsketch  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class SmallTall(wl.TallLeverage):
    n, d = 2048, 8


class SmallCross(wl.CrossPairs):
    n, d, planted = 4096, 8, 4


class SmallWide(wl.WideGeneral):
    m, n, wn, wd = 200, 100, 8, 512


def ready(cls, workdir, seed=3):
    w = cls()
    w.setup(seed, workdir)
    return w


def test_cs_candidates_matches_brute_force():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 5)) * rng.exponential(1.0, size=(60, 1))
    norms = np.einsum("ij,ij->i", x, x)
    prods = np.outer(norms, norms)
    for q in (0.0, 0.3, 0.9, 0.999, 1.0):
        threshold = float(np.quantile(prods, q))
        brute = sum(1 for i in range(60) for j in range(i, 60)
                    if norms[i] * norms[j] >= threshold)
        assert run.cs_candidates(x, threshold) == brute


def test_cs_candidates_covers_every_heavy_pair():
    x = np.random.default_rng(1).standard_normal((300, 6))
    res = levsketch.heavy_pairs(x, 300.0)
    assert len(res) <= run.cs_candidates(x, res.threshold)


@pytest.mark.parametrize("cls", list(wl.WORKLOADS.values()))
def test_generators_are_byte_identical_per_seed(cls):
    def blob(seed):
        out = cls.generate(seed)
        return b"".join(np.ascontiguousarray(a).tobytes()
                        for a in (out if isinstance(out, tuple) else (out,)))

    assert blob(7) == blob(7)
    assert blob(7) != blob(8)


def test_op_seed_depends_on_workload_seed_and_index_only():
    assert wl.op_seed(5, 0) == wl.op_seed(5, 0)
    assert len({wl.op_seed(5, i) for i in range(-1, 50)}) == 51
    assert wl.op_seed(5, 1) != wl.op_seed(6, 1)
    assert 0 <= wl.op_seed(5, 1) < 2**63


def test_tail_leaves_ten_samples_above():
    samples = [float(i) for i in range(30)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail(samples[:10]) == (9.0, 100.0)


def names(section):
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("cls", [SmallTall, SmallCross, SmallWide])
def test_printed_metric_names_match_benchmark_json(cls, tmp_path):
    w = ready(cls, tmp_path)
    metrics, attempted, failed, correct, _ = run.end_to_end(w, 0.0, [0.1])
    assert set(metrics) == names("end_to_end")
    assert correct and attempted >= run.MIN_OPS
    assert all(v > 0 for v, _ in metrics.values())
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {m: u for m, (_, u) in metrics.items()} == units

    metrics, *_ = run.per_layer(w, 0.0, tmp_path, "t")
    assert set(metrics) == names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {m: u for m, (_, u) in metrics.items()} == units


def test_workload_names_match_benchmark_json():
    assert set(wl.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


class DoubledScores(SmallTall):
    def op(self, i):
        return 2.0 * super().op(i)


class NonFinitePair(SmallCross):
    def op(self, i):
        out = super().op(i)
        doc = json.loads(out.read_text())
        doc["result"]["pairs"][0][2] = math.nan
        out.write_text(json.dumps(doc))
        return out


class WrongSolution(SmallWide):
    def op(self, i):
        out = super().op(i)
        out["x"] = 3.0 * out["x"]
        return out


@pytest.mark.parametrize("cls", [DoubledScores, NonFinitePair, WrongSolution])
def test_corrupted_output_counts_as_failed(cls, tmp_path):
    w = ready(cls, tmp_path)
    metrics, attempted, failed, correct, details = run.end_to_end(w, 0.0, [0.1])
    assert failed == attempted
    assert metrics["fail_frac"][0] == 1.0
    assert correct  # the exact baselines still verify


def test_dropped_pair_lowers_recall_by_one_pair(tmp_path):
    w = ready(SmallCross, tmp_path)
    out = w.op(0)
    full = w.check(0, out).pair_recall
    doc = json.loads(out.read_text())
    hit = [p for p in doc["result"]["pairs"] if (p[0], p[1]) in w.exact]
    doc["result"]["pairs"].remove(hit[0])
    out.write_text(json.dumps(doc))
    assert w.check(0, out).pair_recall == pytest.approx(full - 1 / len(w.exact))


def test_known_spectral_overflow_lands_in_fail_frac(tmp_path):
    w = ready(SmallWide, tmp_path)
    metrics, attempted, failed, correct, details = run.end_to_end(w, 0.0, [0.1])
    assert attempted % len(wl.SCALES) == 0
    assert failed == attempted // len(wl.SCALES)
    assert all("spectral_rankk raised" in f for f in details["failures"])


def test_tracer_nests_spans_and_restores_the_library(tmp_path):
    original = levsketch.levscore.apply_srht
    A = np.random.default_rng(2).standard_normal((512, 4))
    plan = levsketch.make_plan(512, 4, 0.5)
    t = tracing.Tracer()
    with t.patched():
        assert levsketch.levscore.apply_srht is not original
        with t.span("bench.op", op=0):
            levsketch.approx_leverage(A, plan, 1)
    assert levsketch.levscore.apply_srht is original
    by_name = {s.name: i for i, s in enumerate(t.spans)}
    root = by_name["levscore.approx_leverage"]
    assert t.spans[by_name["sketch.apply_srht"]].parent == root
    assert t.spans[root].parent == by_name["bench.op"]
    child = t.children_time()
    assert 0 <= t.spans[root].duration - child[root] <= t.spans[root].duration
    t.dump(tmp_path / "spans.json")
    rows = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert {"name", "start", "end", "parent", "op"} <= set(rows[0])
