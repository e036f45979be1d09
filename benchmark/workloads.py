"""Benchmark workloads: seeded inputs, the sketched op, its exact baseline,
and the accuracy check that decides whether an op failed.

Each workload turns the workload seed into its input matrices and exact
references in ``setup``; the library only ever sees those matrices and the
per-op sketch seeds from ``op_seed``. Why each workload exists is recorded
in README.md next to this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import levsketch
from levsketch import cli, io

EPS = 0.5
DELTA = 0.1
RANK_K = 10
SCALES = (1e-4, 1.0, 1e4)


def op_seed(seed: int, i: int) -> int:
    """Sketch seed of op ``i``: derived from the workload seed and ``i`` only."""
    state = np.random.SeedSequence([int(seed), int(i) + 1]).generate_state(2)
    return int(state[0]) << 31 | int(state[1]) >> 1


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    """Worst per-row relative error over rows with a nonzero exact value."""
    nz = exact > 0
    return float(np.max(np.abs(approx[nz] - exact[nz]) / exact[nz]))


@dataclass
class Check:
    """Verdict on one op; the error fields stay None where they do not apply."""

    ok: bool
    reason: str = ""
    max_rel_err: Optional[float] = None
    pair_recall: Optional[float] = None
    sol_rel_err: Optional[float] = None


class Workload:
    """Common shape: ``setup`` builds inputs and references, ``op`` and
    ``baseline`` are the timed calls, ``check`` and ``check_baseline``
    verify their outputs (untimed). After ``setup``, ``input`` is the
    largest matrix the op validates and ``tall`` the matrix its main
    stage-1 SRHT runs on."""

    name = ""
    cycle = 1   # ops per input cycle; a run ends on a whole cycle
    seed = 0
    input: np.ndarray
    tall: np.ndarray


class TallLeverage(Workload):
    """approx_leverage on a 100000 x 64 heavy-tailed (multivariate-t) matrix."""

    n, d, df = 100_000, 64, 2

    name = "tall-leverage"

    @classmethod
    def generate(cls, seed: int) -> np.ndarray:
        rng = np.random.default_rng([seed, 1])
        idx = np.arange(cls.d)
        cov = 2.0 * 0.5 ** np.abs(idx[:, None] - idx[None, :])
        z = rng.standard_normal((cls.n, cls.d)) @ np.linalg.cholesky(cov).T
        w = rng.chisquare(cls.df, size=cls.n)
        return z / np.sqrt(w / cls.df)[:, None]

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.A = self.generate(seed)
        self.input = self.tall = self.A
        self.exact = levsketch.exact_leverage(self.A).scores
        self.plan = levsketch.make_plan(self.n, self.d, EPS)

    def op(self, i: int):
        report, _ = levsketch.approx_leverage(self.A, self.plan, op_seed(self.seed, i))
        return report.scores

    def check(self, i: int, scores) -> Check:
        if scores.shape != self.exact.shape or not np.all(np.isfinite(scores)):
            return Check(False, "non-finite or misshapen scores")
        err = rel_err(scores, self.exact)
        return Check(err <= EPS, f"rel err {err:.3g} > eps" if err > EPS else "",
                     max_rel_err=err)

    def baseline(self, i: int):
        return levsketch.exact_leverage(self.A).scores

    def check_baseline(self, scores) -> bool:
        return bool(np.allclose(scores, self.exact, rtol=1e-9, atol=0.0))


class CrossPairs(Workload):
    """``levsketch cross`` in-process on a 60000 x 32 .levs file with planted
    near-duplicate row pairs; the baseline adds ``--exact-pairs``."""

    n, d, planted, scale = 60_000, 32, 16, 30.0

    name = "cross-pairs"

    @classmethod
    def generate(cls, seed: int) -> np.ndarray:
        rng = np.random.default_rng([seed, 2])
        A = rng.standard_normal((cls.n, cls.d))
        rows = rng.choice(cls.n, size=2 * cls.planted, replace=False)
        for a, b in zip(rows[0::2], rows[1::2]):
            A[b] = A[a] + 1e-3 * rng.standard_normal(cls.d)
        A[rows] *= cls.scale
        return A

    def argv(self, *extra: str) -> list:
        return ["cross", str(self.path), "--kappa", "nlogn",
                "--off-diagonal-only", "-o", str(self.out), *extra]

    def run_cli(self, argv) -> Path:
        if cli.main(argv) != 0:
            raise RuntimeError(f"levsketch {' '.join(argv)} exited non-zero")
        return self.out

    def read_pairs(self):
        """Pairs in the last CLI output, and whether every value is finite."""
        pairs = json.loads(self.out.read_text())["result"]["pairs"]
        finite = all(math.isfinite(c) for _, _, c in pairs)
        return {(int(i), int(j)) for i, j, _ in pairs}, finite

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        A = self.generate(seed)
        self.input = self.tall = A
        self.path = workdir / f"cross-{seed}.levs"
        self.out = workdir / f"cross-{seed}.json"
        io.save_matrix(A, self.path)
        kappa = self.n * math.log(self.n)
        U = levsketch.thin_svd(A).U
        self.exact = levsketch.heavy_pairs(U, kappa).off_diagonal().indices()
        if not self.exact:
            raise RuntimeError("cross-pairs input has no exact heavy pairs")

    def op(self, i: int):
        return self.run_cli(self.argv("--seed", str(op_seed(self.seed, i))))

    def check(self, i: int, _out) -> Check:
        found, finite = self.read_pairs()
        if not finite:
            return Check(False, "non-finite pair values")
        recall = len(found & self.exact) / len(self.exact)
        return Check(True, pair_recall=recall)

    def baseline(self, i: int):
        return self.run_cli(self.argv("--seed", str(op_seed(self.seed, i)),
                                      "--exact-pairs"))

    def check_baseline(self, _out) -> bool:
        found, finite = self.read_pairs()
        return finite and found == self.exact


class WideGeneral(Workload):
    """Rank-k scores of a 2000 x 1000 spiked matrix at three entry scales plus
    a sampled minimal-norm solve on a 32 x 8192 short-fat matrix."""

    m, n, heavy_cols = 2000, 1000, 8
    wn, wd = 32, 8192

    name = "wide-general"
    cycle = len(SCALES)

    @classmethod
    def generate(cls, seed: int):
        """(M, W, b): the spiked matrix, the short-fat matrix and its rhs."""
        rng = np.random.default_rng([seed, 3])
        U, _ = np.linalg.qr(rng.standard_normal((cls.m, RANK_K)))
        V, _ = np.linalg.qr(rng.standard_normal((cls.n, RANK_K)))
        spike = np.linspace(100.0, 50.0, RANK_K)
        M = (U * spike) @ V.T + 0.05 * rng.standard_normal((cls.m, cls.n))
        W = rng.standard_normal((cls.wn, cls.wd))
        W[:, rng.choice(cls.wd, size=cls.heavy_cols, replace=False)] *= 50.0
        b = rng.standard_normal(cls.wn)
        return M, W, b

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        M, self.W, self.b = self.generate(seed)
        self.Ms = [M * s for s in SCALES]
        self.input = self.Ms[0]
        self.tall = np.ascontiguousarray(self.W.T)
        self.p_exact = self.rankk_probs(levsketch.thin_svd(M))
        self.col_exact = levsketch.exact_leverage(self.tall).normalized
        self.x_opt = levsketch.pseudoinverse(self.W) @ self.b
        self.plan = levsketch.make_plan(self.wd, self.wn, EPS)

    @staticmethod
    def rankk_probs(svd) -> np.ndarray:
        Uk = svd.U[:, :RANK_K]
        return np.einsum("ij,ij->i", Uk, Uk) / RANK_K

    def op(self, i: int):
        s = op_seed(self.seed, i)
        M = self.Ms[i % len(SCALES)]
        out = {"frob": levsketch.frobenius_rankk(M, RANK_K, EPS, s).p_hat}
        try:
            out["spectral"] = levsketch.spectral_rankk(M, RANK_K, EPS, s).p_hat
        except levsketch.errors.LevsketchError as exc:
            out["spectral_error"] = f"{type(exc).__name__}: {exc}"
        probs = levsketch.leverage_probs_for_columns(
            self.W, "sketched", plan=self.plan, seed=s)
        # beta = 1, as `levsketch underls --beta 1` passes: r = 129,856 draws
        probs.beta = 1.0
        out["probs"] = probs.p
        out["x"] = levsketch.underls_solve(self.W, self.b, probs, EPS, DELTA, s)
        return out

    def check(self, i: int, out) -> Check:
        err = max(rel_err(out["frob"], self.p_exact),
                  rel_err(out["probs"], self.col_exact))
        sol = float(np.linalg.norm(out["x"] - self.x_opt)
                    / np.linalg.norm(self.x_opt))
        found = Check(True, max_rel_err=err, sol_rel_err=sol)
        spectral = out.get("spectral")
        if spectral is None:
            found.ok, found.reason = False, "spectral_rankk raised " + out["spectral_error"]
        elif not np.all(np.isfinite(spectral)) or abs(spectral.sum() - 1.0) > 1e-9:
            found.ok, found.reason = False, "spectral p_hat does not sum to 1"
        elif not (np.isfinite(err) and err <= EPS):
            found.ok, found.reason = False, f"rel err {err:.3g} > eps"
        elif not (np.isfinite(sol) and sol <= 2 * EPS):
            found.ok, found.reason = False, f"solution err {sol:.3g} > 2 eps"
        return found

    def baseline(self, i: int):
        M = self.Ms[i % len(SCALES)]
        p = self.rankk_probs(levsketch.thin_svd(M))
        return p, levsketch.pseudoinverse(self.W) @ self.b

    def check_baseline(self, out) -> bool:
        p, x = out
        return bool(np.allclose(p, self.p_exact, rtol=1e-6, atol=0.0)
                    and np.allclose(x, self.x_opt, rtol=1e-9, atol=0.0))


WORKLOADS = {cls.name: cls for cls in (TallLeverage, CrossPairs, WideGeneral)}
