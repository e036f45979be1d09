import json

import numpy as np
import pytest

from levsketch import errors, exact_leverage, hadamard_matrix
from levsketch.cli import main
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
    assert set(doc) == {"params", "seed", "timings_ms", "result"}


def test_cli_hadamard_leverage_near_uniform(tmp_path, capsys):
    n, d = 256, 8
    A = hadamard_matrix(n)[:, :d]
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, ["leverage", path, "--eps", "0.5",
                                 "--seed", "7", "--mode", "practical"])
    assert code == 0
    scores = np.asarray(doc["result"]["scores"])
    assert np.all(np.abs(scores - d / n) <= 0.5 * d / n)


def test_cli_degenerate_overrides_match_exact(tmp_path, capsys, rng):
    A = rng.standard_normal((64, 5))
    path = write_fixture(tmp_path, A)
    _, exact_doc = run_cli(capsys, ["exact", path])
    _, sk_doc = run_cli(capsys, ["leverage", path, "--pi1", "fullrht",
                                 "--pi2", "identity", "--seed", "3"])
    np.testing.assert_allclose(sk_doc["result"]["scores"],
                               exact_doc["result"]["scores"], atol=1e-9)


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


def test_cli_mi_estimator(tmp_path, capsys, rng):
    A = rng.standard_normal((128, 4))
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, ["leverage", path, "--estimator", "mi",
                                 "--seed", "5"])
    assert code == 0
    assert doc["result"]["method"] == "mi_estimator"


def test_cli_coherence(tmp_path, capsys, rng):
    A = rng.standard_normal((32, 3))
    path = write_fixture(tmp_path, A)
    code, doc = run_cli(capsys, ["coherence", path])
    assert code == 0
    assert doc["result"]["coherence"] == pytest.approx(
        exact_leverage(A).coherence)


def test_cli_env_seed(tmp_path, capsys, rng, monkeypatch):
    A = rng.standard_normal((50, 4))
    path = write_fixture(tmp_path, A)
    monkeypatch.setenv("LEVSKETCH_SEED", "123")
    code, doc = run_cli(capsys, ["leverage", path])
    assert code == 0
    assert doc["seed"] == 123


def test_cli_hard_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\nx,y\n")
    assert main(["exact", str(bad)]) == 1


def test_cli_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--n-grid", "256,512", "--d-grid", "4",
                 "--trials", "1", "--seed", "0", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,d,exact_ms,sketched_ms,max_rel_err"
    assert len(lines) == 3


def test_cli_bench_json_grid(capsys):
    code, doc = run_cli(capsys, ["bench", "--n-grid", "256,1024",
                                 "--d-grid", "8,300", "--trials", "1",
                                 "--seed", "0", "--output-format", "json"])
    assert code == 0
    assert "backend" not in doc["params"]
    assert doc["result"]["columns"] == ["n", "d", "exact_ms", "sketched_ms",
                                        "max_rel_err"]
    assert [row[:2] for row in doc["result"]["rows"]] == [
        [256, 8], [1024, 8], [1024, 300]]
