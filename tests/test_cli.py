"""Command-line interface: subcommand output formats, exit codes, and
byte-level reproducibility of every file-producing command."""

import json
import math
import os

import numpy as np
import pytest

from hibshrink import cli, specfun
from hibshrink.cli import main
from hibshrink.posterior import shrink
from hibshrink.prior import half_cauchy


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def last_json_record(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return json.loads(lines[-1])


def data_rows(path) -> list[list[str]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(line.split(","))
    return rows[1:]  # drop the header row


# ---- phi1 ----------------------------------------------------------------


def test_phi1_trivial_value(capsys):
    code, out = run(capsys, ["phi1", "--alpha", "0.5", "--beta", "1", "--gamma", "1",
                             "--x", "0", "--y", "0"])
    assert code == 0
    record = last_json_record(out)
    assert record["value"] == 1.0
    assert record["converged"] is True


def test_phi1_closed_form_value(capsys):
    code, out = run(capsys, ["phi1", "--alpha", "0.5", "--beta", "1", "--gamma", "1",
                             "--x", "0", "--y", "0.75", "--oracle"])
    assert code == 0
    record = last_json_record(out)
    assert abs(record["value"] - 2.0) / 2.0 < 1e-10
    assert abs(record["relative_difference"]) < 1e-8


def test_phi1_domain_error_exit_code(capsys):
    code, _ = run(capsys, ["phi1", "--alpha", "0.5", "--beta", "1", "--gamma", "1",
                           "--x", "0", "--y", "1.5"])
    assert code == 2


def test_phi1_convergence_error_exit_code(capsys, monkeypatch):
    # a budget of 1 + 2 * 30 terms is too few for the x-series at x = 30
    monkeypatch.setattr(specfun, "DEFAULT_MAX_TERMS", 1)
    code, _ = run(capsys, ["phi1", "--alpha", "0.5", "--beta", "1", "--gamma", "1.5",
                           "--x", "30", "--y", "0.3"])
    assert code == 3


def test_phi1_budget_follows_the_tilt(capsys):
    # past its crossover, |x| = 2e5 takes the large-x expansion, in a few terms
    code, out = run(capsys, ["phi1", "--alpha", "0.5", "--beta", "1", "--gamma", "6",
                             "--x", "200000", "--y", "0"])
    assert code == 0
    record = last_json_record(out)
    assert record["converged"] is True and record["terms_used"] < 10
    # gamma = alpha leaves no Euler integral and so no crossover: the power
    # series of e^x at |x| = 2e5 needs about 2e5 terms, twice a flat budget
    # of DEFAULT_MAX_TERMS
    code, out = run(capsys, ["phi1", "--alpha", "6", "--beta", "1", "--gamma", "6",
                             "--x", "200000", "--y", "0"])
    assert code == 0
    record = last_json_record(out)
    assert record["converged"] is True and record["terms_used"] > 100_000
    # past the ceiling on the derived budget, no term is summed
    code, _ = run(capsys, ["phi1", "--alpha", "0.5", "--beta", "1", "--gamma", "6",
                           "--x", "3e6", "--y", "0"])
    assert code == 3


def test_phi1_takes_no_series_settings(capsys):
    for flag, value in (("--max-terms", "50"), ("--rel-tol", "1e-6")):
        with pytest.raises(SystemExit) as exc:
            main(["phi1", "--alpha", "0.5", "--beta", "1", "--gamma", "1.5",
                  "--x", "3", "--y", "0.3", flag, value])
        assert exc.value.code == 2


def test_phi1_stdout_reproducible(capsys):
    argv = ["phi1", "--alpha", "1.5", "--beta", "1", "--gamma", "2.5",
            "--x", "-3", "--y", "-0.5", "--oracle"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


# ---- prior-density ----------------------------------------------------------


def test_prior_density_lambda_matches_half_cauchy(capsys, tmp_path):
    out = tmp_path / "dens.csv"
    code, _ = run(capsys, ["prior-density", "--var", "lambda", "--grid", "0:4:81",
                           "--out", str(out)])
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 81
    for _, value, density in rows:
        lam = float(value)
        expected = 2.0 / (math.pi * (1.0 + lam * lam))
        assert abs(float(density) - expected) / expected < 1e-10


def test_prior_density_kappa_with_explicit_prior(capsys, tmp_path):
    out = tmp_path / "kappa.csv"
    code, _ = run(capsys, ["prior-density", "--var", "kappa", "--prior", "1,1,1,0",
                           "--grid", "0.1:0.9:5", "--out", str(out)])
    assert code == 0
    for _, _, density in data_rows(out):
        assert abs(float(density) - 1.0) < 1e-12


def test_prior_density_psi_requires_half_cauchy(capsys, tmp_path):
    out = tmp_path / "psi.csv"
    code, _ = run(capsys, ["prior-density", "--var", "psi", "--prior", "1,1,1,0",
                           "--grid=-2:2:5", "--out", str(out)])
    assert code == 2
    code, _ = run(capsys, ["prior-density", "--var", "psi", "--grid=-2:2:5",
                           "--out", str(out)])
    assert code == 0
    rows = data_rows(out)
    d = {float(v): float(dens) for _, v, dens in rows}
    assert abs(d[2.0] - d[-2.0]) < 1e-15


def test_prior_density_computes_normalizer_once(capsys, tmp_path, normalizer_calls):
    out = tmp_path / "dens.csv"
    code, _ = run(capsys, ["prior-density", "--var", "lambda2", "--prior", "0.5,1,4,3",
                           "--grid", "0.05:16:81", "--out", str(out)])
    assert code == 0
    assert len(data_rows(out)) == 81
    assert len(normalizer_calls) == 1


def test_prior_density_rejects_bad_grid(capsys, tmp_path):
    code, _ = run(capsys, ["prior-density", "--var", "lambda", "--grid", "4:0:nope",
                           "--out", str(tmp_path / "x.csv")])
    assert code == 2


# ---- shrink -------------------------------------------------------------------


def test_shrink_record_matches_library(capsys, tmp_path):
    values = [1.0, 2.0, 2.5, -0.5, 3.0]
    src = tmp_path / "y.txt"
    src.write_text("1 2 2.5\n-0.5, 3\n")
    out = tmp_path / "fit.json"
    code, _ = run(capsys, ["shrink", "--input", str(src), "--out", str(out)])
    assert code == 0
    record = last_json_record(out.read_text())
    fit = shrink(np.array(values), 1.0, half_cauchy())
    assert abs(record["kappa_bar"] - fit.kappa_bar) < 1e-15
    assert abs(record["log_marginal"] - fit.log_marginal) < 1e-12
    np.testing.assert_allclose(record["post_mean"], fit.post_mean, rtol=1e-15)
    # the posterior mean contracts every coordinate toward zero
    assert all(abs(m) < abs(v) for m, v in zip(record["post_mean"], values))


def test_shrink_missing_input_file(capsys, tmp_path):
    code, _ = run(capsys, ["shrink", "--input", str(tmp_path / "absent.txt"),
                           "--out", str(tmp_path / "fit.json")])
    assert code == 2


def test_shrink_malformed_input(capsys, tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("1.0 two 3.0\n")
    code, _ = run(capsys, ["shrink", "--input", str(src),
                           "--out", str(tmp_path / "fit.json")])
    assert code == 2


def test_shrink_absurd_tilt_exit_code(capsys, tmp_path):
    # the series would need ~1e121 terms: exit 3 rather than write a NaN
    # kappa_bar and an infinite log_marginal
    src = tmp_path / "y.txt"
    src.write_text("1e60,2e60,3e60\n")
    out = tmp_path / "fit.json"
    code, _ = run(capsys, ["shrink", "--input", str(src), "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_shrink_huge_signal_converges(capsys, tmp_path):
    # Z = 1e6 needs ~5e5 series terms, five times DEFAULT_MAX_TERMS
    values = np.full(10, math.sqrt(1e5))
    src = tmp_path / "y.txt"
    src.write_text(",".join(repr(float(v)) for v in values) + "\n")
    out = tmp_path / "fit.json"
    code, _ = run(capsys, ["shrink", "--input", str(src), "--out", str(out)])
    assert code == 0
    record = last_json_record(out.read_text())
    assert record["kappa_bar"] == shrink(values, 1.0, half_cauchy()).kappa_bar


# ---- risk-curve ------------------------------------------------------------------


def test_risk_curve_row_layout(capsys, tmp_path):
    out = tmp_path / "rc.csv"
    code, _ = run(capsys, ["risk-curve", "--p", "7", "--grid", "0:6:13", "--mc", "300",
                           "--seed", "5", "--compare", "js", "--out", str(out)])
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 26
    assert [r[0] for r in rows] == ["bayes"] * 13 + ["js"] * 13
    # closed-form rows carry no Monte Carlo metadata
    for r in rows[13:]:
        assert float(r[4]) == 0.0 and int(r[5]) == 0
    assert float(rows[13][3]) == 2.0  # James-Stein origin risk


def test_risk_curve_mle_rows_are_constant(capsys, tmp_path):
    out = tmp_path / "rc.csv"
    run(capsys, ["risk-curve", "--p", "7", "--grid", "0:2:3", "--mc", "200",
                 "--compare", "mle", "--out", str(out)])
    rows = data_rows(out)
    assert [float(r[3]) for r in rows[3:]] == [7.0, 7.0, 7.0]


def test_risk_curve_byte_identical_reruns(capsys, tmp_path):
    argv = ["risk-curve", "--p", "7", "--grid", "0:3:4", "--mc", "400", "--seed", "11",
            "--compare", "js,js_plus", "--out", ""]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv[-1] = str(a)
    run(capsys, list(argv))
    argv[-1] = str(b)
    run(capsys, list(argv))
    assert a.read_bytes() == b.read_bytes()


def test_risk_curve_thread_count_does_not_change_bytes(capsys, tmp_path, monkeypatch):
    argv = ["risk-curve", "--p", "7", "--grid", "0:3:4", "--mc", "400", "--seed", "11",
            "--out", ""]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv[-1] = str(a)
    monkeypatch.setenv("HIBSHRINK_THREADS", "1")
    run(capsys, list(argv))
    monkeypatch.delenv("HIBSHRINK_THREADS")
    argv[-1] = str(b)
    run(capsys, list(argv))
    assert a.read_bytes() == b.read_bytes()


def test_marglik_profile_thread_count_does_not_change_bytes(capsys, tmp_path, monkeypatch):
    # one worker sums the likelihood rows inline, two on a helper process
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"profile-{threads}.csv"
        monkeypatch.setenv("HIBSHRINK_THREADS", threads)
        code, _ = run(capsys, ["marglik-profile", "--seed", "3", "--data-seed", "7",
                               "--iters", "2000", "--burn-in", "500", "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("value", ["0", "abc"])
@pytest.mark.parametrize("command", [
    ["risk-curve", "--p", "7", "--grid", "0:3:4", "--mc", "400", "--seed", "11"],
    ["marglik-profile", "--seed", "0", "--data-seed", "1", "--iters", "50",
     "--burn-in", "10"],
], ids=["risk-curve", "marglik-profile"])
def test_bad_thread_count_is_a_domain_error(command, value, capsys, tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    monkeypatch.setenv("HIBSHRINK_THREADS", value)
    code = main(command + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "HIBSHRINK_THREADS" in err
    assert not out.exists()


def test_risk_curve_rejects_low_dimension(capsys, tmp_path):
    code, _ = run(capsys, ["risk-curve", "--p", "2", "--grid", "0:2:3",
                           "--out", str(tmp_path / "rc.csv")])
    assert code == 2


# ---- simulate-sparse ----------------------------------------------------------------


def test_simulate_sparse_layout_and_reproducibility(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, ["simulate-sparse", "--seed", "2", "--out", str(a)])
    run(capsys, ["simulate-sparse", "--seed", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    rows = data_rows(a)
    assert len(rows) == 150  # 50 coordinates x 3 replicates
    assert rows[0][:2] == ["0", "0"]
    assert rows[-1][:2] == ["49", "2"]


def test_simulate_sparse_seed_changes_values(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, ["simulate-sparse", "--seed", "2", "--out", str(a)])
    run(capsys, ["simulate-sparse", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_simulate_sparse_unwritable_output_exit_code(capsys, tmp_path):
    out = tmp_path / "missing" / "data.csv"
    code = main(["simulate-sparse", "--seed", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write ")
    assert not out.exists()


# ---- marglik-profile -----------------------------------------------------------------


def test_marglik_profile_small_run(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["marglik-profile", "--seed", "0", "--data-seed", "1", "--iters", "400",
            "--burn-in", "100", "--grid-size", "50", "--out", ""]
    argv[-1] = str(a)
    code, _ = run(capsys, list(argv))
    assert code == 0
    argv[-1] = str(b)
    run(capsys, list(argv))
    assert a.read_bytes() == b.read_bytes()

    rows = data_rows(a)
    assert len(rows) == 50
    profile = [float(r[1]) for r in rows]
    assert max(profile) == 1.0
    lam = [float(r[0]) for r in rows]
    for l, hc in zip(lam, (float(r[2]) for r in rows)):
        assert abs(hc - 2.0 / (math.pi * (1.0 + l * l))) < 1e-12


def test_marglik_profile_rejects_bad_burn_in(capsys, tmp_path):
    code, _ = run(capsys, ["marglik-profile", "--iters", "100", "--burn-in", "100",
                           "--out", str(tmp_path / "p.csv")])
    assert code == 2


@pytest.mark.parametrize("size", ["0", "-3"])
def test_marglik_profile_rejects_small_grid(capsys, tmp_path, size):
    code = main(["marglik-profile", "--iters", "50", "--burn-in", "10",
                 "--grid-size", size, "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: grid-size must be at least 2")
    assert not (tmp_path / "p.csv").exists()


def test_marglik_profile_unwritable_output_exit_code(capsys, tmp_path):
    # a directory in place of the output file
    code = main(["marglik-profile", "--iters", "50", "--burn-in", "10",
                 "--grid-size", "5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write ")


# ---- one parser per process -------------------------------------------------


def test_cached_parser_carries_no_flag_between_commands(capsys, tmp_path):
    assert cli._build_parser() is cli._build_parser()
    src = tmp_path / "y.txt"
    src.write_text("1 2 2.5\n-0.5, 3\n")
    commands = [
        ["prior-density", "--var", "kappa", "--prior", "1,0.5,4,0", "--grid", "0.1:0.9:5"],
        ["shrink", "--input", str(src)],
        ["prior-density", "--var", "kappa", "--grid", "0.1:0.9:5"],
    ]

    def outputs(fresh: bool) -> list[bytes]:
        texts = []
        for k, argv in enumerate(commands):
            if fresh:
                cli._build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{k}.txt"
            assert run(capsys, argv + ["--out", str(out)])[0] == 0
            texts.append(out.read_bytes())
        return texts

    shared = outputs(fresh=False)
    assert shared == outputs(fresh=True)
    assert b'"prior": "half-cauchy"' in shared[2]
