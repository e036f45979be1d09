import argparse
import csv
import hashlib
import io as io_module
import json
import math
import os
import struct
import threading

import numpy as np
import pytest

from conftest import traced_peak
from levsketch import (approx_cross_leverage, approx_leverage, cli, errors,
                       exact_leverage, hadamard_matrix, heavy_pairs, make_plan,
                       power_q, sample_size, thin_svd)
from levsketch import io as levs_io
from levsketch.cli import main
from levsketch.crosslev import _finish
from levsketch.io import load_matrix, save_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------- formats

def test_matrix_market_array_identity(tmp_path):
    path = tmp_path / "eye.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n")
    np.testing.assert_allclose(load_matrix(path), np.eye(2))


def test_matrix_market_coordinate_duplicates_summed(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 3\n1 1 2.0\n1 1 3.0\n2 2 1.0\n")
    np.testing.assert_allclose(load_matrix(path), [[5.0, 0.0], [0.0, 1.0]])


def test_csv_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    np.testing.assert_allclose(load_matrix(path), [[1, 2], [3, 4]])


def test_csv_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,abc\n")
    with pytest.raises(errors.ParseError):
        load_matrix(path)


def test_missing_file():
    with pytest.raises(errors.ParseError):
        load_matrix("/nonexistent/m.csv")


def test_binary_round_trip_bit_exact(tmp_path, rng):
    A = rng.standard_normal((7, 5))
    path = tmp_path / "m.levs"
    save_matrix(A, path)
    assert path.read_bytes()[:4] == b"LEVS"
    assert np.array_equal(load_matrix(path), A)


def test_binary_rejects_garbage(tmp_path):
    path = tmp_path / "junk.levs"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(errors.ParseError):
        load_matrix(path)


def levs_bytes(n, d, body, magic=b"LEVS", version=1, pad=None):
    """A LEVS file's bytes; ``pad`` defaults to the zero bytes that take a
    version-2 header to 64 bytes (version 1 has none)."""
    if pad is None:
        pad = bytes(43 if version == 2 else 0)
    return magic + bytes([version]) + struct.pack("<QQ", n, d) + pad + body


# (file bytes, the ParseError message after "<path>: "); the body of a
# 2 x 3 matrix is 48 bytes
_BAD_LEVS = {
    "ragged": (levs_bytes(2, 3, bytes(45)),
               "expected 6 floats, found 5 and 5 stray bytes"),
    "short": (levs_bytes(2, 3, bytes(40)), "expected 6 floats, found 5"),
    "long": (levs_bytes(2, 3, bytes(56)), "expected 6 floats, found 7"),
    "magic": (levs_bytes(2, 3, bytes(48), magic=b"LEVZ"),
              "not a LEVS binary matrix"),
    "version": (levs_bytes(2, 3, bytes(48), version=3),
                "unsupported version 3"),
    "header": (b"LEVS\x01" + bytes(10), "not a LEVS binary matrix"),
    "v2-ragged": (levs_bytes(2, 3, bytes(45), version=2),
                  "expected 6 floats, found 5 and 5 stray bytes"),
    "v2-short": (levs_bytes(2, 3, bytes(40), version=2),
                 "expected 6 floats, found 5"),
    "v2-long": (levs_bytes(2, 3, bytes(56), version=2),
                "expected 6 floats, found 7"),
    "v2-padding-cut": (levs_bytes(2, 3, b"", version=2, pad=bytes(20)),
                       "not a LEVS binary matrix"),
    "v2-reserved": (levs_bytes(2, 3, bytes(48), version=2,
                               pad=bytes(42) + b"\x01"),
                    "not a LEVS binary matrix"),
}


@pytest.mark.parametrize("case", sorted(_BAD_LEVS))
def test_binary_malformed_file_is_a_parse_error(tmp_path, case):
    raw, msg = _BAD_LEVS[case]
    path = tmp_path / "bad.levs"
    path.write_bytes(raw)
    with pytest.raises(errors.ParseError) as exc:
        load_matrix(path)
    assert str(exc.value) == f"{path}: {msg}"


@pytest.mark.parametrize("case", sorted(_BAD_LEVS))
def test_cli_malformed_binary_exits_hard(tmp_path, capsys, case):
    path = tmp_path / "bad.levs"
    path.write_bytes(_BAD_LEVS[case][0])
    code = main(["cross", str(path), "--kappa", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {path}: {_BAD_LEVS[case][1]}\n"


def test_binary_load_is_writable_and_validated(tmp_path, rng):
    A = rng.standard_normal((9, 4))
    A[3] = 0.0
    path = tmp_path / "m.levs"
    save_matrix(A, path)
    B = load_matrix(path)
    assert B.dtype == np.float64 and B.flags.c_contiguous
    assert B.flags.writeable
    assert np.array_equal(B, A)
    raw = bytearray(path.read_bytes())
    assert raw[4] == 2  # a version-2 body starts at byte 64
    raw[64:72] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(raw))
    with pytest.raises(errors.NonFiniteEntry):
        load_matrix(path)


def test_binary_v2_body_is_mapped_not_copied(tmp_path, rng):
    A = rng.standard_normal((200000, 8))  # a 12.8 MB body
    path = tmp_path / "m.levs"
    save_matrix(A, path)
    raw = path.read_bytes()
    assert raw[:5] == b"LEVS\x02" and raw[21:64] == bytes(43)
    assert len(raw) == 64 + A.nbytes
    B, peak = traced_peak(lambda: load_matrix(path))
    assert peak < 2**20
    assert B.flags.c_contiguous and B.flags.aligned and B.flags.writeable
    assert np.array_equal(B, A)
    B[0, 0] = 7.0  # copy-on-write: the file keeps its bytes
    assert path.read_bytes() == raw
    assert np.array_equal(load_matrix(path), A)


def test_binary_save_writes_the_body_without_a_copy(tmp_path, rng):
    A = rng.standard_normal((200000, 32))  # 48.8 MiB
    path = tmp_path / "m.levs"
    _, peak = traced_peak(lambda: save_matrix(A, path))
    assert peak < 2**20
    assert np.array_equal(load_matrix(path), A)


def test_binary_v1_file_still_loads_by_copy(tmp_path, rng):
    A = rng.standard_normal((9, 4))
    path = tmp_path / "old.levs"
    path.write_bytes(levs_bytes(9, 4, A.astype("<f8").tobytes()))
    B = load_matrix(path)
    assert B.flags.writeable and B.flags.c_contiguous
    assert np.array_equal(B, A)


@pytest.mark.parametrize("n, d", [(0, 3), (2, 0), (0, 0)])
def test_binary_v2_header_only_is_empty(tmp_path, n, d):
    path = tmp_path / "empty.levs"
    path.write_bytes(levs_bytes(n, d, b"", version=2))
    with pytest.raises(errors.EmptyMatrix):
        load_matrix(path)


@pytest.mark.parametrize("size, found", [(64 + 20, 2), (30, 0), (0, 0)])
def test_binary_v2_file_that_shrinks_before_mapping(tmp_path, monkeypatch,
                                                    size, found):
    path = tmp_path / "m.levs"
    save_matrix(np.ones((2, 3)), path)
    real = levs_io.mmap.mmap

    def shrink_then_map(fileno, *args, **kwargs):
        os.truncate(path, size)
        return real(fileno, *args, **kwargs)

    monkeypatch.setattr(levs_io.mmap, "mmap", shrink_then_map)
    with pytest.raises(errors.ParseError) as exc:
        load_matrix(path)
    assert str(exc.value) == f"{path}: expected 6 floats, found {found}"


def fifo_feeding(tmp_path, raw, name="pipe.levs"):
    """A FIFO that a thread fills with ``raw`` once it is opened; a pipe,
    like ``<(zcat m.levs.gz)``, has no size before it is read."""
    path = tmp_path / name
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(raw)
        except BrokenPipeError:  # the reader stopped after the header
            pass

    threading.Thread(target=feed, daemon=True).start()
    return path


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_binary_loads_from_a_pipe(tmp_path, capsys, rng):
    A = rng.standard_normal((50, 3))
    A[7] = 0.0
    save_matrix(A, tmp_path / "m.levs")
    raw = (tmp_path / "m.levs").read_bytes()
    assert raw[4] == 2
    B = load_matrix(fifo_feeding(tmp_path, raw))
    assert B.flags.writeable and B.flags.c_contiguous
    assert np.array_equal(B, A)
    # no suffix names the format, as for /dev/fd/N
    path = fifo_feeding(tmp_path, raw, name="fd")
    code, doc = run_cli(capsys, ["exact", str(path), "--format", "binary"])
    assert code == 0
    np.testing.assert_allclose(doc["result"]["scores"],
                               exact_leverage(A).scores, atol=1e-12)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("case", sorted(_BAD_LEVS))
def test_binary_malformed_pipe_is_a_parse_error(tmp_path, case):
    raw, msg = _BAD_LEVS[case]
    path = fifo_feeding(tmp_path, raw)
    with pytest.raises(errors.ParseError) as exc:
        load_matrix(path)
    assert str(exc.value) == f"{path}: {msg}"


@pytest.mark.parametrize("ext", ["mtx", "csv"])
def test_text_round_trip_17_digits(tmp_path, rng, ext):
    A = rng.standard_normal((6, 3))
    path = tmp_path / f"m.{ext}"
    save_matrix(A, path)
    np.testing.assert_allclose(load_matrix(path), A, rtol=1e-15, atol=0)


# ---------------------------------------------------------------- CLI

def write_fixture(tmp_path, A, name="a.csv"):
    path = tmp_path / name
    save_matrix(A, path, "csv")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_cli_exact_leverage(tmp_path, capsys, rng):
    A = rng.standard_normal((30, 4))
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, ["exact", path])
    assert code == 0
    np.testing.assert_allclose(doc["result"]["scores"],
                               exact_leverage(A).scores, atol=1e-12)
    assert set(doc) == {"params", "seed", "retried", "timings_ms",
                        "result"}
    assert doc["seed"] is None  # an exact run draws nothing
    code, doc = run_cli(capsys, ["coherence", path, "--method", "exact"])
    assert code == 0 and doc["seed"] is None
    for seed in ([], ["--seed", "7"]):
        code, doc = run_cli(capsys, ["cross", path, "--exact-pairs", *seed])
        assert code == 0 and doc["seed"] is None


def test_cli_hadamard_leverage_near_uniform(tmp_path, capsys):
    n, d = 256, 8
    A = hadamard_matrix(n)[:, :d]
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, ["leverage", path, "--eps", "0.5",
                                 "--seed", "7"])
    assert code == 0
    scores = np.asarray(doc["result"]["scores"])
    assert np.all(np.abs(scores - d / n) <= 0.5 * d / n)


def test_cli_degenerate_overrides_match_exact(tmp_path, capsys, rng):
    A = rng.standard_normal((64, 5))
    path = write_fixture(tmp_path, A)
    _, exact_doc = run_cli(capsys, ["exact", path])
    _, sk_doc = run_cli(capsys, ["leverage", path, "--r1", "64", "--r2", "5",
                                 "--seed", "3"])
    np.testing.assert_allclose(sk_doc["result"]["scores"],
                               exact_doc["result"]["scores"], atol=1e-9)


def test_cli_reports_the_sketch_sizes_it_used(tmp_path, capsys, rng):
    # the plan asks for r2 = 274, but at 300 x 6 stage 1 factors A itself
    # (r1 = n) and stage 2 would not compress, so the scores use 6 columns
    path = write_fixture(tmp_path, rng.standard_normal((300, 6)))
    for argv in (["leverage", path], ["cross", path]):
        code, doc = run_cli(capsys, argv + ["--seed", "4"])
        assert code == 0
        assert (doc["params"]["r1"], doc["params"]["r2"]) == (300, 274)
        assert doc["params"]["run"] == {"rank": 6, "r1": 300, "r2": 6,
                                        "route": "cholesky_qr2"}
        # r1 = 128 < n factors the SRHT sketch with one guarded Cholesky
        code, doc = run_cli(capsys, argv + ["--seed", "4", "--r1", "128"])
        assert code == 0
        assert doc["params"]["run"] == {"rank": 6, "r1": 128, "r2": 6,
                                        "route": "cholesky"}


def test_cli_leverage_reports_its_phase_timings(tmp_path, capsys, rng):
    # r1 = 128 < n runs the SRHT; the product phase includes the row norms
    path = write_fixture(tmp_path, rng.standard_normal((400, 6)))
    code, doc = run_cli(capsys, ["leverage", path, "--r1", "128", "--seed", "2"])
    assert code == 0
    timings = doc["timings_ms"]
    assert set(timings) == {"sketch_apply_ms", "factorization_ms", "product_ms"}
    assert all(v >= 0.0 for v in timings.values())


def test_cli_determinism_byte_identical(tmp_path, capsys, rng):
    A = rng.standard_normal((100, 6))
    path = write_fixture(tmp_path, A)

    def payload():
        code = main(["leverage", path, "--seed", "11"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timings_ms")
        return json.dumps(doc, sort_keys=True).encode()

    assert payload() == payload()


def test_cli_cross_schema(tmp_path, capsys, rng):
    A = rng.standard_normal((60, 4))
    A[9] = A[2] * 20
    A[2] *= 20
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, ["cross", path, "--kappa", "nlogn",
                                 "--seed", "1"])
    assert code == 0
    assert "pairs" in doc["result"] and "threshold" in doc["result"]
    for entry in doc["result"]["pairs"]:
        i, j, c_sq = entry
        assert isinstance(i, int) and isinstance(j, int)
        assert c_sq >= doc["result"]["threshold"]
    assert doc["result"]["candidates"] >= len(doc["result"]["pairs"]) > 0
    assert set(doc["timings_ms"]) == {"sketch_ms", "search_ms"}
    code, exact = run_cli(capsys, ["cross", path, "--kappa", "nlogn",
                                   "--exact-pairs"])
    assert code == 0
    assert exact["result"]["candidates"] >= len(exact["result"]["pairs"]) > 0
    assert set(exact["timings_ms"]) == {"sketch_ms", "search_ms"}


def test_cli_cross_pair_bound_exceeded_exits_hard(tmp_path, capsys,
                                                  monkeypatch, rng):
    def too_many_pairs(*args, **kwargs):
        return _finish(np.array([0, 0]), np.array([0, 1]), np.ones(2),
                       threshold=1.0, kappa=1.0, gram_fro_sq=1.0, r=1)

    monkeypatch.setattr(cli, "approx_cross_leverage", too_many_pairs)
    path = write_fixture(tmp_path, rng.standard_normal((40, 3)))
    code = main(["cross", path, "--kappa", "5", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "exceeds the kappa*r bound" in captured.err


@pytest.mark.parametrize("extra, msg", [
    (["--kappa", "inf"], "kappa must exceed 1 and be finite, got inf"),
    (["--kappa", "inf", "--exact-pairs"],
     "kappa must exceed 1 and be finite, got inf"),
    # only a plan that draws a stage rescales kappa: this one sketches
    (["--kappa", "1e308", "--r1", "50"], "kappa 1e+308 is too large: the "
     "rescaled kappa * ||X^T X||_F^2 / d overflowed")],
    ids=["inf", "inf-exact", "overflow"])
def test_cli_cross_kappa_out_of_range_exits_hard(tmp_path, capsys, rng,
                                                 extra, msg):
    path = write_fixture(tmp_path, rng.standard_normal((100, 3)))
    code = main(["cross", path, "--seed", "0", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {msg}\n"


def test_cli_cached_parser_carries_no_state(tmp_path, capsys, rng):
    # one parser serves every call in a process; a switch given to one call
    # must not carry into the next
    A = rng.standard_normal((400, 6))
    A[9] = A[2] * 20
    A[2] *= 20
    path = write_fixture(tmp_path, A)
    runs = [["cross", path, "--kappa", "nlogn", "--seed", "1",
             "--off-diagonal-only"],
            ["cross", path, "--kappa", "nlogn", "--seed", "1"],
            ["leverage", path, "--seed", "2", "--r1", "128"],
            ["leverage", path, "--seed", "2"]]

    def document(argv):
        code, doc = run_cli(capsys, argv)
        assert code == 0
        doc.pop("timings_ms")
        return doc

    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(document(argv))
    assert fresh[0] != fresh[1] and fresh[2] != fresh[3]
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    assert [document(argv) for argv in runs] == fresh
    assert cli.build_parser() is parser


def test_cli_cross_off_diagonal_filter(tmp_path, capsys, rng):
    A = rng.standard_normal((40, 3))
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, ["cross", path, "--kappa", "5",
                                 "--off-diagonal-only", "--seed", "0"])
    assert code == 0
    assert all(i != j for i, j, _ in doc["result"]["pairs"])


def test_cli_rankk(tmp_path, capsys, rng):
    A = rng.standard_normal((50, 40))
    path = write_fixture(tmp_path, A)
    for norm in ("frobenius", "spectral"):
        code, doc = run_cli(capsys, ["rankk", path, "--k", "3",
                                     "--norm", norm, "--seed", "2"])
        assert code == 0
        p_hat = np.asarray(doc["result"]["p_hat"])
        assert abs(p_hat.sum() - 1.0) <= 1e-9


def test_cli_underls(tmp_path, capsys, rng):
    A = rng.standard_normal((6, 200))
    b = rng.standard_normal(6)
    pa = write_fixture(tmp_path, A, "a.csv")
    pb = write_fixture(tmp_path, b.reshape(-1, 1), "b.csv")
    code, doc = run_cli(capsys, ["underls", pa, "--rhs", pb, "--seed", "0"])
    assert code == 0
    x = np.asarray(doc["result"]["solution"])
    assert x.shape == (200,)
    assert doc["result"]["residual"] <= 1.0


_NO_WRITE_RUNS = {
    "leverage": ["leverage", "tall"],
    "leverage-mi": ["leverage", "tall", "--estimator", "mi"],
    "exact": ["exact", "tall"],
    "coherence": ["coherence", "tall"],
    "cross": ["cross", "tall", "--kappa", "5"],
    "cross-exact": ["cross", "tall", "--kappa", "5", "--exact-pairs"],
    "rankk-spectral": ["rankk", "square", "--k", "2", "--norm", "spectral"],
    "rankk-frobenius": ["rankk", "square", "--k", "2", "--norm", "frobenius"],
    "underls": ["underls", "wide", "--rhs", "b"],
}


@pytest.mark.parametrize("run", sorted(_NO_WRITE_RUNS))
def test_cli_no_subcommand_writes_into_its_input(tmp_path, capsys,
                                                 monkeypatch, run):
    """A mapped input stays shared with the page cache only while nothing
    writes into it, so every subcommand must run on read-only arrays."""
    rng = np.random.default_rng(3)
    tall = rng.standard_normal((128, 4))
    tall[9] = tall[2] * 20
    tall[2] *= 20
    inputs = {"tall": tall, "square": rng.standard_normal((20, 12)),
              "wide": rng.standard_normal((4, 40)),
              "b": rng.standard_normal((4, 1))}
    for name, M in inputs.items():
        save_matrix(M, tmp_path / f"{name}.levs")
    real, loaded = levs_io.load_matrix, []

    def read_only(*args):
        m = real(*args)
        m.flags.writeable = False
        loaded.append(m)
        return m

    monkeypatch.setattr(levs_io, "load_matrix", read_only)
    argv = [str(tmp_path / f"{w}.levs") if w in inputs else w
            for w in _NO_WRITE_RUNS[run]]
    assert main(argv) == 0
    assert len(loaded) == (2 if run == "underls" else 1)


def test_cli_cross_peak_does_not_count_the_mapped_input(tmp_path, capsys,
                                                        rng):
    A = rng.standard_normal((200000, 8))
    path = tmp_path / "big.levs"
    save_matrix(A, path)
    argv = ["cross", str(path), "--kappa", "5", "--seed", "0"]
    assert main(argv) == 0  # warm-up
    capsys.readouterr()
    plan = make_plan(*A.shape, epsilon=0.5)
    hp, lib_peak = traced_peak(lambda: approx_cross_leverage(A, plan, 5.0, 0))
    code, cli_peak = traced_peak(lambda: main(argv))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["candidates"] == hp.candidates
    assert cli_peak - lib_peak < A.nbytes / 4


def test_cli_rankk_reports_what_the_sketch_used(tmp_path, capsys, rng):
    path = write_fixture(tmp_path, rng.standard_normal((50, 40)))
    code, doc = run_cli(capsys, ["rankk", path, "--k", "3", "--norm",
                                 "spectral", "--q", "2", "--seed", "2"])
    assert code == 0
    assert doc["params"]["run"] == {"q": 2, "rank": 6}
    code, doc = run_cli(capsys, ["rankk", path, "--k", "3", "--norm",
                                 "spectral", "--seed", "2"])
    assert doc["params"]["run"]["q"] == power_q(50, 40, 3, 0.5)
    code, doc = run_cli(capsys, ["rankk", path, "--k", "3", "--seed", "2"])
    assert doc["params"]["run"] == {"r": 40, "rank": 40, "route": "cholesky"}


@pytest.mark.parametrize("eps, q", [("0", "2"), ("1", "2"), ("1.5", "2"),
                                    ("nan", "2"), ("0.5", "-1")])
def test_cli_spectral_rankk_rejects_bad_eps_or_q(tmp_path, capsys, rng,
                                                 eps, q):
    path = write_fixture(tmp_path, rng.standard_normal((50, 40)))
    assert main(["rankk", path, "--k", "3", "--norm", "spectral",
                 "--q", q, "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("scale", [0.0, 1e-8])
def test_cli_spectral_rankk_zero_sketch_is_one_hard_error(tmp_path, capsys,
                                                          monkeypatch, scale):
    # A zero A, or one whose power steps underflow, gives a zero B. No
    # seed changes that: one factorization, then exit 1 with the
    # RankTooLow that frobenius rankk raises for a zero A.
    from levsketch import levscore
    factored = []
    real = levscore.build_orthogonalizer
    monkeypatch.setattr(levscore, "build_orthogonalizer",
                        lambda *a, **k: (factored.append(1), real(*a, **k))[1])
    A = scale * np.random.default_rng(4).standard_normal((40, 30))
    path = write_fixture(tmp_path, A)
    assert main(["rankk", path, "--k", "3", "--norm", "spectral"]) \
        == cli.EXIT_HARD
    err = "error: sketch B has numerical rank 0 < k=3\n"
    assert capsys.readouterr().err == err
    assert len(factored) == 1
    if scale == 0.0:
        assert main(["rankk", path, "--k", "3"]) == cli.EXIT_HARD
        assert capsys.readouterr().err == err


def test_cli_underls_retries_its_sketched_probabilities(tmp_path, capsys):
    # On [I_6 0] the r1 = 12 rows that the probability sketch samples from
    # A^T lose a unit row at seeds 4 and 5 (rank 5 < 6), and seed 6 keeps
    # all six. The probabilities and the draws take one seed per attempt,
    # so --seed 4 reaches seed 6 and writes the --seed 6 document, which
    # lists the two seeds it gave up on.
    A = np.hstack([np.eye(6), np.zeros((6, 294))])
    pa = write_fixture(tmp_path, A, "a.csv")
    pb = write_fixture(tmp_path, np.ones((6, 1)), "b.csv")
    argv = ["underls", pa, "--rhs", pb, "--probs", "sketched", "--r1", "12"]
    docs = [run_cli(capsys, [*argv, "--seed", seed]) for seed in ("4", "6")]
    lost = "sketched matrix has rank 5 < 6; resample with a new seed"
    assert docs[0][1].pop("retried") == [{"seed": 4, "error": lost},
                                         {"seed": 5, "error": lost}]
    assert docs[1][1].pop("retried") == []
    assert docs[0] == docs[1] and docs[0][0] == 0
    assert docs[0][1]["seed"] == 6
    assert main([*argv, "--seed", "4", "--retries", "1"]) \
        == cli.EXIT_RETRY_EXHAUSTED
    assert "resample with a new seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["leverage"], ["cross", "--kappa", "20"],
                                  ["coherence", "--method", "sketched"]])
def test_cli_reports_the_seed_it_retried(tmp_path, capsys, argv):
    # the r1 = 12 rows sampled from [I_6; 0] lose a unit row at seed 5
    # (rank 5 < 6) and keep all six at seed 6: --seed 5 writes the --seed 6
    # document and names seed 5 and its error under "retried"
    A = np.vstack([np.eye(6), np.zeros((294, 6))])
    command, *options = argv
    argv = [command, write_fixture(tmp_path, A), *options, "--r1", "12"]
    (code, retried), (_, kept) = [run_cli(capsys, [*argv, "--seed", seed])
                                  for seed in ("5", "6")]
    assert code == 0 and retried["seed"] == kept["seed"] == 6
    assert retried.pop("retried") == [{
        "seed": 5,
        "error": "sketched matrix has rank 5 < 6; resample with a new seed"}]
    assert kept.pop("retried") == []
    for doc in (retried, kept):
        doc.pop("timings_ms")
    assert retried == kept


@pytest.mark.parametrize("probs", ["exact", "sketched"])
@pytest.mark.parametrize("rank", [5, 0])
def test_cli_underls_rank_deficient_matrix_is_one_hard_error(
        tmp_path, capsys, monkeypatch, probs, rank):
    # a 6 x 300 Gaussian whose row 5 equals row 4 has rank 5, a zero one
    # rank 0. Both probabilities factor A^T exactly (the default r1 = 685
    # is capped at 300), find that rank, which no seed changes, and stop:
    # one attempt, exit 1, and the message names the rank.
    attempts = []
    real = cli.leverage_probs_for_columns
    monkeypatch.setattr(cli, "leverage_probs_for_columns",
                        lambda *a, **k: (attempts.append(1), real(*a, **k))[1])
    A = np.random.default_rng(11).standard_normal((6, 300)) * (rank > 0)
    A[5] = A[4]
    pa = write_fixture(tmp_path, A, "a.csv")
    pb = write_fixture(tmp_path, np.ones((6, 1)), "b.csv")
    assert main(["underls", pa, "--rhs", pb, "--probs", probs]) \
        == cli.EXIT_HARD
    assert capsys.readouterr().err == \
        f"error: matrix has rank {rank} < 6; the solve needs rank 6\n"
    assert len(attempts) == 1


def test_cli_underls_retries_a_column_sample_that_loses_rank(
        tmp_path, capsys, monkeypatch, rng):
    # A has full rank; its column sample is made to lose rank at seed 3,
    # so --seed 3 retries and writes the --seed 4 document
    real = cli.underls_solve

    def solve(A, b, p, eps, delta, seed, extras=None):
        if seed == 3:
            raise errors.RankDeficient("sketched matrix has rank 5 < 6")
        return real(A, b, p, eps, delta, seed, extras=extras)

    monkeypatch.setattr(cli, "underls_solve", solve)
    pa = write_fixture(tmp_path, rng.standard_normal((6, 300)), "a.csv")
    pb = write_fixture(tmp_path, np.ones((6, 1)), "b.csv")
    for probs in ("exact", "sketched"):
        argv = ["underls", pa, "--rhs", pb, "--probs", probs]
        docs = [run_cli(capsys, [*argv, "--seed", s]) for s in ("3", "4")]
        assert docs[0][1].pop("retried") == [
            {"seed": 3, "error": "sketched matrix has rank 5 < 6"}]
        assert docs[1][1].pop("retried") == []
        assert docs[0] == docs[1] and docs[0][0] == 0
        assert docs[0][1]["seed"] == 4


def test_cli_underls_reports_draws(tmp_path, capsys, rng):
    A = rng.standard_normal((6, 200))
    pa = write_fixture(tmp_path, A, "a.csv")
    pb = write_fixture(tmp_path, rng.standard_normal((6, 1)), "b.csv")
    code, doc = run_cli(capsys, ["underls", pa, "--rhs", pb, "--seed", "0"])
    assert code == 0
    run = doc["params"]["run"]
    assert run["r"] == sample_size(6, 1.0, 0.5, 0.1)
    assert 6 <= run["distinct"] <= 200


def test_cli_underls_reads_the_rhs_in_its_own_format(tmp_path, capsys, rng):
    # --format names the matrix's format; the rhs's comes from its suffix
    A = rng.standard_normal((4, 40))
    pa, pb = tmp_path / "w.mtx", tmp_path / "b.csv"
    save_matrix(A, pa)
    save_matrix(rng.standard_normal((4, 1)), pb)
    code, doc = run_cli(capsys, ["underls", str(pa), "--rhs", str(pb),
                                 "--format", "matrix-market", "--seed", "0"])
    assert code == 0
    assert doc["params"]["run"]["route"] == "cholesky"
    # a suffix that names no format leaves the rhs to --format
    pa, pb = tmp_path / "w.txt", tmp_path / "b.txt"
    save_matrix(A, pa, "csv")
    save_matrix(rng.standard_normal((4, 1)), pb, "csv")
    code, doc = run_cli(capsys, ["underls", str(pa), "--rhs", str(pb),
                                 "--format", "csv", "--seed", "0"])
    assert code == 0


def test_cli_underls_tiny_beta_is_a_typed_error(tmp_path, capsys, rng):
    # the theory sample size for beta = 1e-300 does not fit in int64
    pa = write_fixture(tmp_path, rng.standard_normal((4, 40)), "a.csv")
    pb = write_fixture(tmp_path, rng.standard_normal((4, 1)), "b.csv")
    code = main(["underls", pa, "--rhs", pb, "--beta", "1e-300",
                 "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: beta=1e-300")
    assert "Traceback" not in captured.err


def test_cli_underls_tiny_beta_within_int64_runs(tmp_path, capsys, rng):
    # beta = 1e-9 asks for 4.5e13 draws: held as counts, they fit
    pa = write_fixture(tmp_path, rng.standard_normal((4, 40)), "a.csv")
    pb = write_fixture(tmp_path, rng.standard_normal((4, 1)), "b.csv")
    code = main(["underls", pa, "--rhs", pb, "--beta", "1e-9", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Traceback" not in captured.err
    run = json.loads(captured.out)["params"]["run"]
    assert run["r"] == sample_size(4, 1e-9, 0.5, 0.1) and run["distinct"] == 40


def test_cli_mi_estimator(tmp_path, capsys, rng):
    A = rng.standard_normal((128, 4))
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, ["leverage", path, "--estimator", "mi",
                                 "--seed", "5"])
    assert code == 0
    assert doc["result"]["method"] == "mi_estimator"


# sha256 of each document, timings_ms removed, as the release before the
# product passes took their own tile rule and the report derived its
# normalized scores wrote them: the gram route's 5 tiles of 8192 rows (2
# of 32768 before) give the same bits, and so does the derived weighting
PINNED_DOCUMENTS = {
    ("leverage", "--seed", "9"):
        "e16cc44272b7e5f664900bd98659e8ba2d531beca4b87b0dc0ba91257874d307",
    ("exact",):
        "177de757a03e7a5374ee6469e121222c2204af607299aa52b65425364a078146",
    ("coherence", "--method", "sketched", "--seed", "9"):
        "12ed5aafe44f39b03abd7af8b27a54a428d1a8a3f84a941a050693c2b149d3d9",
    ("coherence", "--method", "exact"):
        "e386631f5e4235325cfa8475a838d0bffc1e02ba600706b8d2997c5be5485e9e",
}


@pytest.mark.parametrize("argv", list(PINNED_DOCUMENTS))
def test_score_documents_are_pinned(tmp_path, capsys, argv):
    rng = np.random.default_rng(28)
    A = rng.standard_normal((40000, 8))
    A[rng.choice(40000, 50, replace=False)] *= 30.0
    path = tmp_path / "tall.levs"
    save_matrix(A, path)
    code, doc = run_cli(capsys, [argv[0], str(path), *argv[1:]])
    assert code == 0
    doc.pop("timings_ms")
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == PINNED_DOCUMENTS[argv]


def test_cli_coherence(tmp_path, capsys, rng):
    A = rng.standard_normal((32, 3))
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, ["coherence", path])
    assert code == 0
    assert doc["result"]["coherence"] == pytest.approx(
        exact_leverage(A).coherence)
    code, doc = run_cli(capsys, ["coherence", path, "--method", "sketched",
                                 "--seed", "4"])
    assert code == 0
    report, _ = approx_leverage(A, make_plan(32, 3, 0.5), doc["seed"])
    assert doc["result"] == {"coherence": report.coherence,
                             "method": "sketched"}


def test_cli_sketched_coherence_peak_is_scores_plus_one_tile(tmp_path, rng):
    # the document reads the report's largest score alone: beyond the n
    # scores the peak is one product tile (8192 rows of 8, 512 KiB). Read
    # from the whole leverage document it held the normalized scores too,
    # a second n-vector (3.06 MiB here)
    n, d = 200_000, 8
    path = tmp_path / "t.levs"
    save_matrix(rng.standard_normal((n, d)), path)
    argv = ["coherence", str(path), "--method", "sketched",
            "-o", str(tmp_path / "out.json")]
    assert main(argv) == 0  # warm-up
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert peak <= 8 * n + 8192 * d * 8 + (128 << 10), (
        f"peak {peak / 2**20:.2f} MiB")


def test_cli_env_seed(tmp_path, capsys, rng, monkeypatch):
    # r1 = 20 < n samples rows; the default plan (r1 = n) draws nothing
    A = rng.standard_normal((50, 4))
    path = write_fixture(tmp_path, A)
    monkeypatch.setenv("LEVSKETCH_SEED", "123")
    code, doc = run_cli(capsys, ["leverage", path, "--r1", "20"])
    assert code == 0
    assert doc["seed"] == 123


def test_cli_non_integer_env_seed_is_a_usage_error(tmp_path, capsys, rng,
                                                   monkeypatch):
    path = write_fixture(tmp_path, rng.standard_normal((50, 4)))
    monkeypatch.setenv("LEVSKETCH_SEED", "abc")
    assert main(["leverage", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "LEVSKETCH_SEED" in err and "'abc'" in err


def test_cli_hard_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\nx,y\n")
    assert main(["exact", str(bad)]) == 1


@pytest.mark.parametrize("argv", [["leverage"], ["cross"],
                                  ["coherence", "--method", "sketched"]])
def test_cli_exact_plan_rank_deficiency_is_not_retried(tmp_path, capsys,
                                                       monkeypatch, argv):
    # 100 x 8 with two equal columns: the default r1 = 737 is capped at
    # n = 100, so the plan samples nothing and factors A itself. No seed
    # changes A's rank 7, so the exact plan keeps it: one factorization,
    # and the run reports rank 7. A sampling plan (r1 = 50) still retries
    # each seed.
    from levsketch import levscore
    factored = []
    real = levscore.build_orthogonalizer
    monkeypatch.setattr(levscore, "build_orthogonalizer",
                        lambda *a, **k: (factored.append(1), real(*a, **k))[1])
    A = np.random.default_rng(3).standard_normal((100, 8))
    A[:, 7] = A[:, 2]
    command, *options = argv
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, [command, path, *options])
    assert code == cli.EXIT_OK and doc["params"]["run"]["rank"] == 7
    assert len(factored) == 1
    factored.clear()
    assert main([command, path, *options, "--r1", "50"]) \
        == cli.EXIT_RETRY_EXHAUSTED
    assert "sketched matrix has rank 7 < 8" in capsys.readouterr().err
    assert len(factored) == 4  # --seed and the 3 default retries


@pytest.mark.parametrize("argv", [["leverage"], ["cross"],
                                  ["coherence", "--method", "sketched"],
                                  ["cross", "--exact-pairs"]])
def test_cli_exact_plan_zero_matrix_is_one_hard_error(tmp_path, capsys,
                                                      monkeypatch, argv):
    # a zero 100 x 8 has no range to keep: the exact plan (r1 = n) raises
    # on its one factorization, as no seed changes A
    from levsketch import levscore
    factored = []
    real = levscore.build_orthogonalizer
    monkeypatch.setattr(levscore, "build_orthogonalizer",
                        lambda *a, **k: (factored.append(1), real(*a, **k))[1])
    command, *options = argv
    path = write_fixture(tmp_path, np.zeros((100, 8)))
    assert main([command, path, *options]) == cli.EXIT_HARD
    assert capsys.readouterr().err == "error: matrix is numerically zero\n"
    assert len(factored) == 1


@pytest.mark.parametrize("argv", [["leverage"], ["cross"],
                                  ["coherence", "--method", "sketched"]])
def test_cli_gram_route_reports_itself_and_is_not_retried(tmp_path, capsys,
                                                          monkeypatch, argv):
    # at 4096 x 8 the default plan takes the gram route: the exact sizes,
    # a null seed and one factorization, which keeps A's rank 7; explicit
    # sizes choose the sketch route, whose seed is reported
    from levsketch import levscore
    factored = []
    real = levscore.build_orthogonalizer
    monkeypatch.setattr(levscore, "build_orthogonalizer",
                        lambda *a, **k: (factored.append(1), real(*a, **k))[1])
    A = np.random.default_rng(27).standard_normal((4096, 8))
    command, *options = argv
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, [command, path, *options, "--seed", "7"])
    assert code == 0 and doc["seed"] is None
    params = doc["params"]
    assert (params["route"], params["r1"], params["r2"]) == ("gram", 4096, 8)
    assert params["run"] == {"rank": 8, "r1": 4096, "r2": 8,
                             "route": "cholesky"}
    code, doc = run_cli(capsys, [command, path, *options, "--seed", "7",
                                 "--r1", "512"])
    assert code == 0 and doc["seed"] == 7
    assert doc["params"]["route"] == "sketch"
    A[:, 7] = A[:, 2]
    path = write_fixture(tmp_path, A, "deficient.csv")
    factored.clear()
    code, doc = run_cli(capsys, [command, path, *options])
    assert code == 0 and doc["params"]["run"]["rank"] == 7
    assert len(factored) == 1


def test_cli_underls_reports_the_plan_route(tmp_path, capsys, rng):
    # the probabilities of a 8 x 4096 A come from a plan for A^T, which
    # takes the gram route; the draws still use the seed
    path = write_fixture(tmp_path, rng.standard_normal((8, 4096)))
    rhs = write_fixture(tmp_path, rng.standard_normal((8, 1)), "rhs.csv")
    code, doc = run_cli(capsys, ["underls", path, "--rhs", rhs, "--probs",
                                 "sketched", "--seed", "3"])
    assert code == 0 and doc["seed"] == 3
    assert doc["params"]["route"] == "gram"
    code, doc = run_cli(capsys, ["underls", path, "--rhs", rhs, "--seed", "3"])
    assert code == 0 and "route" not in doc["params"]


def test_cli_exact_plan_reports_a_null_seed(tmp_path, capsys, rng):
    # at 300 x 6 the default plan factors A itself (r1 = n) and projects
    # nothing (r2 = 274 >= d), so it draws nothing whatever --seed says;
    # --exact-pairs runs that plan whatever --r1 and --r2 say. --r2 3 < d
    # draws Pi2 and --r1 128 < n samples rows: both report their seed.
    path = write_fixture(tmp_path, rng.standard_normal((300, 6)))
    for argv in (["leverage"], ["coherence", "--method", "sketched"],
                 ["cross"]):
        code, doc = run_cli(capsys, [argv[0], path, *argv[1:], "--seed", "7"])
        assert code == 0 and doc["seed"] is None
        for extra in (["--r2", "3"], ["--r1", "128"]):
            code, doc = run_cli(capsys, [argv[0], path, *argv[1:], *extra,
                                         "--seed", "7"])
            assert code == 0 and doc["seed"] == 7
            code, doc = run_cli(capsys, ["cross", path, "--exact-pairs",
                                         *extra, "--seed", "7"])
            assert code == 0 and doc["seed"] is None
            assert doc["params"]["run"] == {"rank": 6, "r1": 300, "r2": 6,
                                            "route": "cholesky_qr2"}


def _planted_cross_input(seed, n=60_000, d=32, planted=16, scale=30.0):
    """n x d Gaussian rows with ``planted`` near-duplicate row pairs, the
    paired rows scaled by ``scale``: the cross-pairs benchmark input. It
    must build what ``CrossPairs.generate`` in benchmark/workloads.py
    builds, which ``scripts/bench_grid.py`` takes through its
    ``planted_input``."""
    rng = np.random.default_rng([seed, 2])
    A = rng.standard_normal((n, d))
    rows = rng.choice(n, size=2 * planted, replace=False)
    for a, b in zip(rows[0::2], rows[1::2]):
        A[b] = A[a] + 1e-3 * rng.standard_normal(d)
    A[rows] *= scale
    return A


def _rank_five_input():
    """400 x 6 of rank 5 (column 5 = column 3 + column 4), 20 rows x30."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((400, 6))
    A[:, 5] = A[:, 3] + A[:, 4]
    A[rng.choice(400, 20, replace=False)] *= 30
    return A


def _special_rows_input():
    """300 x 5 Gaussian with zero rows, duplicated rows and +-e_i rows."""
    A = np.random.default_rng(6).standard_normal((300, 5))
    A[10:15] = 0.0
    A[20:25] = A[30:35] = 20 * A[40:45]
    A[50:55] = 40 * np.eye(5)
    A[60:65] = -40 * np.eye(5)
    return A


def _square_rank_deficient_input():
    """40 x 40 of rank 30, 5 rows x20."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 30)) @ rng.standard_normal((30, 40))
    A[rng.choice(40, 5, replace=False)] *= 20
    return A


def _wide_input():
    """30 x 80 of rank 20, 4 rows x20."""
    rng = np.random.default_rng(8)
    A = rng.standard_normal((30, 20)) @ rng.standard_normal((20, 80))
    A[rng.choice(30, 4, replace=False)] *= 20
    return A


def assert_exact_pairs_are_the_svd_pairs(tmp_path, capsys, A, margin=True):
    """``cross --exact-pairs --kappa nlogn`` finds the pairs of
    ``heavy_pairs(thin_svd(A).U, n ln n)``, values within 1e-12 relative.
    With ``margin`` every U U^T entry is checked to sit clear of the cut,
    so that rounding decides no pair."""
    n, d = A.shape
    kappa = n * math.log(n)
    U = thin_svd(A).U
    ref = heavy_pairs(U, kappa)
    if margin:
        sq = np.triu(U @ U.T) ** 2
        assert np.min(np.abs(sq - ref.threshold)) >= 1e-6 * ref.threshold
    path = tmp_path / "a.levs"
    save_matrix(A, path)
    code, doc = run_cli(capsys, ["cross", str(path), "--kappa", "nlogn",
                                 "--exact-pairs", "--seed", "7"])
    path.unlink()
    assert code == 0 and doc["seed"] is None
    assert doc["params"] == {
        "n": n, "d": d, "kappa": kappa, "exact": True,
        "r1": max(n, d), "r2": d, "route": "sketch",
        "run": {"rank": U.shape[1], "r1": n, "r2": U.shape[1],
                "route": doc["params"]["run"]["route"]}}
    assert set(doc["timings_ms"]) == {"sketch_ms", "search_ms"}
    pairs = doc["result"]["pairs"]
    assert len(pairs) > 0
    assert [(i, j) for i, j, _ in pairs] == [(i, j) for i, j, _ in ref.pairs]
    np.testing.assert_allclose([c for *_, c in pairs],
                               [c for *_, c in ref.pairs], rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(1, 13))
def test_cli_exact_pairs_equal_the_svd_pairs_on_planted_inputs(
        tmp_path, capsys, seed):
    # 60000 x 32: U U^T is too large to scan for the margin. On seeds 1-6
    # the pair nearest the cut sat 1.06e-3 relative from it.
    assert_exact_pairs_are_the_svd_pairs(
        tmp_path, capsys, _planted_cross_input(seed), margin=False)


@pytest.mark.parametrize("build", [_rank_five_input, _special_rows_input,
                                   _square_rank_deficient_input, _wide_input],
                         ids=["rank-5", "special-rows", "square-rank-30",
                              "wide-rank-20"])
def test_cli_exact_pairs_equal_the_svd_pairs_on_hard_inputs(tmp_path, capsys,
                                                             build):
    assert_exact_pairs_are_the_svd_pairs(tmp_path, capsys, build())


def test_cli_exact_pairs_ignore_eps(tmp_path, capsys):
    # epsilon sizes nothing on the exact plan: --eps 0.9, which a sketch
    # rejects, changes nothing in the document but its timings
    path = write_fixture(tmp_path, _rank_five_input())
    docs = []
    for extra in ([], ["--eps", "0.9"]):
        code, doc = run_cli(capsys, ["cross", path, "--exact-pairs", *extra])
        assert code == 0
        del doc["timings_ms"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert main(["cross", path, "--eps", "0.9"]) == cli.EXIT_HARD
    assert "epsilon must be in (0, 0.5]" in capsys.readouterr().err


def test_cli_exact_plan_leverage_on_a_rank_deficient_matrix(tmp_path, capsys):
    # the default plan at 400 x 6 is exact (r1 = n) and keeps A's rank 5
    A = _rank_five_input()
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, ["leverage", path])
    assert code == 0 and doc["params"]["run"]["rank"] == 5
    np.testing.assert_allclose(doc["result"]["scores"],
                               exact_leverage(A).scores, rtol=1e-12, atol=0)


@pytest.mark.parametrize("flag, value", [("--r2", "0"), ("--r2", "-3"),
                                         ("--r1", "0"), ("--retries", "-1")])
def test_cli_bad_sketch_parameter_is_a_usage_error(tmp_path, capsys, rng,
                                                   flag, value):
    path = write_fixture(tmp_path, rng.standard_normal((40, 3)))
    assert main(["leverage", path, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag.lstrip("-") in err


@pytest.mark.parametrize("argv", [["leverage", "x.csv", "--pi2", "identity"],
                                  ["leverage", "x.csv", "--pi1", "srht"],
                                  ["bench"],
                                  ["leverage", "x.csv", "--c1", "20"],
                                  ["exact", "x.csv", "--r1", "5"],
                                  ["exact", "x.csv", "--retries", "2"],
                                  ["exact", "x.csv", "--seed", "3"],
                                  ["rankk", "x.csv", "--k", "2", "--mode",
                                   "theory"],
                                  ["leverage", "x.csv", "--mode", "theory"],
                                  ["leverage", "x.csv", "--delta", "0.1"],
                                  ["rankk", "x.csv", "--k", "2", "--retries",
                                   "1"]])
def test_cli_removed_switches_do_not_parse(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _subparsers():
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_option_inventory():
    # each subcommand registers only the options it reads; a new option
    # must be added here on purpose
    io_opts = {"input", "format", "output", "output_format"}
    sketch = {"seed", "eps", "retries", "r1", "r2"}
    expected = {
        "leverage": io_opts | sketch | {"estimator"},
        "exact": io_opts,
        "coherence": io_opts | sketch | {"method"},
        "cross": io_opts | sketch | {"kappa", "off_diagonal_only",
                                     "exact_pairs"},
        "rankk": io_opts | {"seed", "eps", "k", "norm", "q"},
        "underls": io_opts | sketch | {"rhs", "probs", "beta", "delta"},
    }
    found = {name: {a.dest for a in parser._actions
                    if not isinstance(a, argparse._HelpAction)}
             for name, parser in _subparsers().items()}
    assert found == expected
    assert sum(map(len, found.values())) == 58


def _choice_runs():
    """(subcommand, option, value) for every value of every option with
    ``choices`` in the parser the CLI runs."""
    return [(name, action.option_strings[0], value)
            for name, parser in _subparsers().items()
            for action in parser._actions if action.choices
            for value in action.choices]


_SUFFIX = {"csv": "csv", "matrix-market": "mtx", "binary": "levs"}
_CSV_HEADER = {"cross": "i,j,c_sq", "underls": "x", "coherence": "coherence"}


@pytest.mark.parametrize("command, option, value", _choice_runs())
def test_cli_every_choice_runs(tmp_path, capsys, command, option, value):
    rng = np.random.default_rng(5)
    fmt = value if option == "--format" and value != "auto" else "csv"
    extra = []
    if command == "underls":  # the rhs is CSV beside every matrix format
        A = rng.standard_normal((4, 40))
        rhs = tmp_path / "b.csv"
        save_matrix(rng.standard_normal((4, 1)), rhs)
        extra = ["--rhs", str(rhs)]
    elif command == "rankk":
        A, extra = rng.standard_normal((20, 12)), ["--k", "2"]
    else:  # tall, with one planted heavy pair (rows 2 and 9)
        A = rng.standard_normal((60, 4))
        A[9] = A[2] * 20
        A[2] *= 20
    path = tmp_path / f"a.{_SUFFIX[fmt]}"
    save_matrix(A, path, fmt)
    argv = [command, str(path), *extra, option, value]
    if option == "--output-format" and value == "csv":
        out = tmp_path / "out.csv"
        assert main([*argv, "-o", str(out)]) == 0
        header, *rows = list(csv.reader(out.read_text().splitlines()))
        assert ",".join(header) == _CSV_HEADER.get(command, "score")
        assert rows and np.isfinite([float(v) for r in rows for v in r]).all()
    else:
        code, doc = run_cli(capsys, argv)
        assert code == 0
        assert set(doc) == {"params", "seed", "retried", "timings_ms",
                            "result"}


# ---------------------------------------------------------------- json writer

def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2,
                      default=cli._json_default) + "\n"


_EVERY_DOCUMENT = [
    ["leverage", "--seed", "2"], ["leverage", "--estimator", "mi"],
    ["exact"], ["coherence"], ["coherence", "--method", "sketched"],
    ["cross"], ["cross", "--exact-pairs"], ["cross", "--kappa", "1.5"],
    ["cross", "--off-diagonal-only"],
    ["rankk", "--k", "2"], ["rankk", "--k", "2", "--norm", "spectral"],
    ["underls"], ["underls", "--probs", "sketched"],
]


@pytest.mark.parametrize("argv", _EVERY_DOCUMENT, ids=" ".join)
def test_cli_json_is_what_json_dumps_writes(tmp_path, capsys, monkeypatch,
                                            argv):
    # the document is written a float array chunk at a time, to -o and to
    # stdout, in the bytes json.dumps(doc, sort_keys=True, indent=2) gives;
    # a 3-value chunk splits the 60 scores across chunks. cross at kappa
    # 1.5 finds no pairs: an empty list.
    monkeypatch.setattr(cli, "_CHUNK", 3)
    docs = []
    real = cli._emit
    monkeypatch.setattr(cli, "_emit",
                        lambda doc, args: (docs.append(doc), real(doc, args)))
    rng = np.random.default_rng(5)
    command, *options = argv
    if command == "underls":
        A = rng.standard_normal((4, 40))
        save_matrix(rng.standard_normal((4, 1)), tmp_path / "b.csv")
        options += ["--rhs", str(tmp_path / "b.csv")]
    else:
        A = rng.standard_normal((60, 4))
        A[9] = A[2] * 20
        A[2] *= 20
    save_matrix(A, tmp_path / "a.levs")
    argv = [command, str(tmp_path / "a.levs"), *options]
    out = tmp_path / "out.json"
    assert main([*argv, "-o", str(out)]) == 0
    assert main(argv) == 0
    written = (out.read_text(), capsys.readouterr().out)
    assert [_dumps(doc) for doc in docs] == list(written)
    if argv[-1] == "1.5":
        assert json.loads(written[0])["result"]["pairs"] == []


def test_json_writer_matches_json_dumps_on_any_array():
    # empty, non-finite, nested, chunk-sized and non-float arrays all come
    # out as json.dumps writes them
    docs = [{}, {"a": []}, {"a": np.empty(0)}, {"a": [np.empty(0)]},
            {"x": np.arange(3.0), "y": np.arange(3), "z": np.ones((2, 2))},
            {"r": {"s": np.array([0.1, np.nan, np.inf, -np.inf, -0.0,
                                  1e-300, 5e300]),
                   "t": [np.ones(2), [np.zeros(1)], {"u": np.full(1, 2.5)}],
                   "c": np.float64(0.5), "k": np.int64(4)}},
            {"s": np.random.default_rng(0).random(2 * cli._CHUNK + 1) - 0.5},
            {"s": np.linspace(0.0, 1.0, cli._CHUNK)}]
    for doc in docs:
        buf = io_module.StringIO()
        cli._write_json(doc, buf)
        assert buf.getvalue() == _dumps(doc)


def test_json_writer_matches_json_dumps_on_any_pairs():
    # result.pairs is streamed in chunks: empty, non-finite, subnormal,
    # tuple and numpy-valued pairs, and more pairs than a chunk holds,
    # come out as json.dumps writes them
    rng = np.random.default_rng(4)
    many = [(int(i), int(j), float(c)) for i, j, c in
            zip(rng.integers(0, 10**6, 5000), rng.integers(0, 10**6, 5000),
                rng.random(5000) * 10.0 ** rng.integers(-300, 300, 5000))]
    assert len(many) > cli._CHUNK
    odd = [[0, 0, math.nan], [1, 2, math.inf], [3, 4, -math.inf],
           (5, 6, 5e-324), (7, 8, np.float64(2.0)), [9, 9, -0.0]]
    docs = [{"result": {"pairs": []}}, {"result": {"pairs": odd}},
            {"params": {"n": 3}, "seed": None, "retried": [],
             "result": {"pairs": many, "threshold": 0.5, "candidates": 9}},
            {"result": {"pairs": odd[:1], "scores": np.arange(3.0)}},
            {"pairs": odd, "result": {}}]
    for doc in docs:
        buf = io_module.StringIO()
        cli._write_json(doc, buf)
        assert buf.getvalue() == _dumps(doc)


def test_cli_csv_output_dumps_no_json(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called for CSV output")

    monkeypatch.setattr(cli.json, "dumps", refuse)
    A = np.random.default_rng(5).standard_normal((60, 4))
    save_matrix(A, tmp_path / "a.levs")
    out = tmp_path / "out.csv"
    assert main(["leverage", str(tmp_path / "a.levs"), "-o", str(out),
                 "--output-format", "csv"]) == 0
    assert out.read_text().startswith("score\n")


def test_json_writer_peak_does_not_grow_with_the_scores(tmp_path):
    # 100000 scores: json.dumps held the whole 2.3 MB text and a Python
    # float per score, a 22 MiB peak; chunk by chunk the writer holds one
    # chunk's floats and text, under 1 MiB
    doc = {"params": {}, "result": {"scores": np.random.default_rng(1)
                                    .random(100_000) * 1e-4}}
    args = argparse.Namespace(output=str(tmp_path / "out.json"),
                              output_format="json")
    _, peak = traced_peak(lambda: cli._emit(doc, args))
    assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"
    assert (tmp_path / "out.json").read_text() == _dumps(doc)


def _csv_per_value(result) -> str:
    """The CSV text of ``result``, written one value at a time."""
    if "pairs" in result:
        return "i,j,c_sq\n" + "".join(f"{i},{j},{c:.17g}\n"
                                      for i, j, c in result["pairs"])
    if "solution" in result:
        return "x\n" + "".join(f"{v:.17g}\n" for v in result["solution"])
    if "coherence" in result and "scores" not in result:
        return f"coherence\n{result['coherence']:.17g}\n"
    return "score\n" + "".join(
        f"{v:.17g}\n" for v in result.get("scores", result.get("p_hat", [])))


def test_csv_writer_matches_the_per_value_text(tmp_path, monkeypatch):
    # chunks of 3 lines split every array; non-finite, subnormal and
    # signed-zero values, int and float pairs and empty results come out
    # as the per-value writer wrote them
    monkeypatch.setattr(cli, "_CHUNK", 3)
    values = np.array([0.1, np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300,
                       1 / 3])
    results = [{"scores": values, "coherence": 1.0},
               {"scores": np.random.default_rng(0).random(2 * 3 + 1)},
               {"p_hat": values[::-1].copy()}, {"solution": values},
               {"pairs": [[0, 0, 0.5], [1, 7, 1 / 3], [2, 9, np.float64(2.0)],
                          [3, 4, 1e-300]]},
               {"coherence": np.float64(0.25), "method": "exact"},
               {"solution": [0.5, 1 / 3]}, {"scores": np.empty(0)},
               {"pairs": []}, {"solution": []}, {}]
    out = tmp_path / "out.csv"
    for result in results:
        cli._emit_csv({"result": result}, str(out))
        assert out.read_text() == _csv_per_value(result)
