"""Command-line contract: formats, determinism, exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zonalvar
from zonalvar import DEFAULT_TRUNCATION, laurent, poisson_uncertainty_via_s, poisson_wavelet_spec
from zonalvar.cli import build_verify_report, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    header_comments = [ln for ln in lines if ln.startswith("# ")]
    data = [ln for ln in lines if not ln.startswith("# ")]
    rows = list(csv.DictReader(io.StringIO("\n".join(data))))
    return header_comments, rows


# ---------------------------------------------------------------------------
# compute


def test_compute_json_record(capsys):
    code, out, err = run(capsys, ["compute", "--n", "3", "--m", "1", "--rho", "0.01"])
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 3 and record["m"] == 1 and record["rho"] == 0.01
    assert record["bound"] == 1.5
    # approaches the scale-free limit sqrt(5/2) ~ 1.5811 within 1%
    assert abs(record["product"] - 1.581) <= 0.016
    assert record["limit_value"] == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert record["path_agreement"] <= 1e-9
    assert record["meta"]["command"] == "compute"


def test_compute_momentum_spot_value(capsys):
    code, out, _ = run(capsys, ["compute", "--n", "2", "--m", "1", "--rho", "0.05"])
    assert code == 0
    record = json.loads(out)
    assert abs(record["var_momentum"] - 2026.7) <= 5.0


def test_compute_csv_format(capsys):
    code, out, _ = run(
        capsys, ["compute", "--n", "3", "--m", "2", "--rho", "0.5", "--format", "csv"]
    )
    assert code == 0
    comments, rows = parse_csv(out)
    assert any("command: compute" in c for c in comments)
    assert len(rows) == 1
    assert float(rows[0]["product"]) >= 1.5
    assert rows[0]["n"] == "3"


def test_compute_rejects_low_dimension(capsys):
    code, out, err = run(capsys, ["compute", "--n", "1", "--m", "1", "--rho", "0.1"])
    assert code == 64
    assert out == ""
    assert "n must be >= 2" in err


def test_compute_infinite_scale_is_an_invalid_argument(capsys):
    # passes the command's own checks and reaches the library's DomainError
    code, out, err = run(capsys, ["compute", "--n", "3", "--m", "1", "--rho", "inf"])
    assert code == 64
    assert out == ""
    assert err == "invalid argument: rho must be positive and finite\n"


@pytest.mark.parametrize("argv", [
    "compute --n 1 --m 1 --rho 0.1",
    "compute --n 3 --m 0 --rho 0.1",
    "compute --n 3 --m 1 --rho 0",
    "compute --n 3 --m 1 --rho nan",
    "compute --n 3 --m 1 --rho -1",
    "sweep --n 1 --m 1 --rho-min 0.1 --rho-max 1",
    "sweep --n 3 --m 0 --rho-min 0.1 --rho-max 1",
    "limits --n-min 1",
    "expand --target S0 --n 1",
    "expand --target Sm --n 3 --m -1",
    "expand --target A --n 3 --m 0",
    "expand --target varS --n 1 --m 1",
])
def test_value_outside_the_domain_is_one_invalid_argument_line(capsys, argv):
    # the library's check answers, not a second one in the command
    code, out, err = run(capsys, argv.split())
    assert code == 64
    assert out == ""
    assert err.startswith("invalid argument:") and err.count("\n") == 1 and err.endswith("\n")


def test_module_run_matches_main(capsys):
    src = str(Path(zonalvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv, expected_code in (
        (["compute", "--n", "3", "--m", "1", "--rho", "0.1"], 0),
        (["compute", "--n", "3", "--m", "1", "--rho", "inf"], 64),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "zonalvar.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, argv)
        assert done.returncode == expected_code


def test_compute_degenerate_scale_exit_code(capsys):
    code, out, err = run(capsys, ["compute", "--n", "3", "--m", "1", "--rho", "800"])
    assert code == 2
    assert out == ""
    assert "degenerate" in err.lower()


def test_compute_large_dimension_sums_the_capped_rule(capsys):
    # the coefficient path caps the wavelet's factor 1/sigma(S^n) at 1, so
    # f_hat^2 stays in range where 1/sigma(S^n) would overflow it, also
    # where sigma(S^n) itself leaves the double range (n = 400)
    for n, m, rho in ((120, 1, 0.01), (400, 1, 1.0)):
        code, out, err = run(capsys, ["compute", "--n", str(n), "--m", str(m), "--rho", str(rho)])
        assert code == 0, err
        record = json.loads(out)
        assert record["path_agreement"] <= 1e-9
        fast = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, rho))
        assert abs(record["product"] - fast.product) <= 1e-9 * fast.product


@pytest.mark.parametrize("n, m, rho", [(2, 50, 0.01), (3, 40, 1e-3)])
def test_compute_small_rho_high_order_stays_in_range(capsys, n, m, rho):
    # the summed rule keeps rho^m, so its peak m^m e^-m does not grow as rho
    # falls; dropping rho^m would overflow f_hat^2 here
    code, out, err = run(capsys, ["compute", "--n", str(n), "--m", str(m), "--rho", str(rho)])
    assert code == 0, err
    assert json.loads(out)["path_agreement"] <= 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--n", "300", "--m", "1", "--rho", "0.1"],
        ["compute", "--n", "400", "--m", "2", "--rho", "0.1"],
        ["compute", "--n", "2", "--m", "100", "--rho", "1"],
        ["compute", "--n", "2", "--m", "150", "--rho", "1"],
        ["compute", "--n", "3", "--m", "1", "--rho", "1e-160"],
    ],
)
def test_compute_beyond_double_range_is_degenerate(capsys, argv):
    # a coefficient-path term, the binomial weight, sigma(S^n) or an S-path
    # functional leaves the double range
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("degenerate input:")
    assert "Traceback" not in err


def test_compute_truncation_budget_exit_code(capsys):
    # the coefficient sums at rho = 1e-6 need more than DEFAULT_TRUNCATION's
    # 10,000,000 terms
    code, out, err = run(capsys, ["compute", "--n", "3", "--m", "1", "--rho", "1e-6"])
    assert code == 3
    assert out == ""
    assert err.startswith("series truncation failure:")


def test_meta_config_echoes_the_default_stop_policy(capsys):
    # no option sets these fields; the output keeps them, so its bytes stay the same
    policy = list(dataclasses.asdict(DEFAULT_TRUNCATION).items())
    code, out, _ = run(capsys, ["compute", "--n", "3", "--m", "1", "--rho", "0.1"])
    assert code == 0
    assert list(json.loads(out)["meta"]["config"].items()) == [("n", 3), ("m", 1), ("rho", 0.1), *policy]
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    assert list(json.loads(out)["meta"]["config"].items()) == policy


def test_compute_deterministic_output(capsys):
    argv = ["compute", "--n", "4", "--m", "2", "--rho", "0.3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


# sha256 of `zonalvar compute` stdout (exit 0) or stderr (exit 2), recorded
# before the block engine's fold width went from 256 to 128 columns, so a
# change to the coefficient sums cannot move a digit of the output silently.
# The output carries meta.version, so a version bump needs new digests.
COMPUTE_DIGESTS = {
    (3, 2, 0.5): (0, "1738c715051712c1b4ef7686fe7f8a84b2918d99c12644411787e10a2b6d7086"),
    (5, 2, 0.05): (0, "babf47d89168ba0f849061fc36e7630939b940dbd19d64d3632ca4c5fcdf9c4c"),
    (12, 4, 1e-3): (0, "3ba69f614722011cd0465ad08b5ad37797ae64f28b21c388ccb1ecbe145170dd"),
    (120, 1, 0.01): (0, "84d65974dce539e8be00419bf71ecdd739158c4e45ccea8a3b3f129fd581005c"),
    (2, 50, 0.01): (0, "20fa7cf4571b95def0914af059e269d9749b667ce50fb870e855471a2ce5bb64"),
    (400, 1, 0.01): (2, "6d0cb7be9a1aa28e34f9e1c29bc725f7da45d3a1495527647b13a31d2dda77e5"),
}


@pytest.mark.parametrize("point", COMPUTE_DIGESTS)
def test_compute_output_bytes_are_pinned(capsys, point):
    n, m, rho = point
    code, out, err = run(capsys, ["compute", "--n", str(n), "--m", str(m), "--rho", str(rho)])
    expected_code, digest = COMPUTE_DIGESTS[point]
    assert code == expected_code
    written, empty = (out, err) if code == 0 else (err, out)
    assert empty == ""
    assert hashlib.sha256(written.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# sweep


def test_sweep_geometric_grid_and_limit_approach(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--n", "3", "--m", "1", "--rho-min", "0.01", "--rho-max", "0.2",
         "--steps", "8"],
    )
    assert code == 0
    comments, rows = parse_csv(out)
    assert len(rows) == 8
    rhos = [float(r["rho"]) for r in rows]
    assert rhos[0] == 0.01 and rhos[-1] == 0.2
    ratios = [b / a for a, b in zip(rhos, rhos[1:])]
    assert max(ratios) - min(ratios) < 1e-9
    products = [float(r["product"]) for r in rows]
    # decreasing toward the rho -> 0 limit 1.5811 as rho shrinks
    assert all(a < b for a, b in zip(products, products[1:]))
    assert abs(products[0] - math.sqrt(2.5)) < 3e-3
    assert all(r["status"] == "ok" for r in rows)


def test_sweep_residual_shrinks_quadratically(capsys):
    _, out, _ = run(
        capsys,
        ["sweep", "--n", "3", "--m", "1", "--rho-min", "0.01", "--rho-max", "0.08",
         "--steps", "4"],
    )
    _, rows = parse_csv(out)
    residuals = [abs(float(r["residual"])) for r in rows]
    rhos = [float(r["rho"]) for r in rows]
    # rho doubles per step; an O(rho^2) residual grows ~4x per step
    for i in range(len(rows) - 1):
        growth = residuals[i + 1] / residuals[i]
        assert 2.0 < growth < 8.0, (rhos, residuals)


def test_sweep_degenerate_rows_are_marked(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--n", "2", "--m", "1", "--rho-min", "1.0", "--rho-max", "900",
         "--steps", "5"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    statuses = {r["status"] for r in rows}
    assert "degenerate" in statuses and "ok" in statuses
    degenerate = [r for r in rows if r["status"] == "degenerate"]
    assert all(r["product"] == "" for r in degenerate)


def test_sweep_single_step_rejected(capsys):
    code, _, err = run(
        capsys,
        ["sweep", "--n", "3", "--m", "1", "--rho-min", "0.1", "--rho-max", "0.2",
         "--steps", "1"],
    )
    assert code == 64


@pytest.mark.parametrize("option", ["--rel-tol", "--min-terms", "--max-terms"])
@pytest.mark.parametrize("command", ["compute", "verify", "sweep"])
def test_commands_have_no_series_options(capsys, command, option):
    # the coefficient sums always stop by DEFAULT_TRUNCATION
    args = {"compute": ["--n", "3", "--m", "1", "--rho", "0.1"], "verify": [],
            "sweep": ["--n", "3", "--m", "1", "--rho-min", "0.1", "--rho-max", "0.2"]}[command]
    value = {"--rel-tol": "1e-10", "--min-terms": "10", "--max-terms": "1000"}[option]
    code, out, err = run(capsys, [command, *args, option, value])
    assert code == 64
    assert out == ""
    assert "no such option" in err.lower() and option in err


@pytest.mark.parametrize("command", ["compute", "sweep", "limits", "expand", "verify"])
def test_output_option_help_is_shared(capsys, command):
    code, out, err = run(capsys, [command, "--help"])
    assert code == 0 and err == ""
    assert " ".join(out.split()).count("-o, --output TEXT output file (stdout if omitted)") == 1


def test_sweep_large_dimension(capsys):
    code, out, err = run(
        capsys,
        ["sweep", "--n", "400", "--m", "1", "--rho-min", "0.01", "--rho-max", "1",
         "--steps", "3"],
    )
    assert code == 0, err
    _, rows = parse_csv(out)
    assert [r["status"] for r in rows] == ["ok"] * 3
    assert all(float(r["product"]) >= 200.0 for r in rows)


def test_sweep_json_format(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--n", "3", "--m", "1", "--rho-min", "0.1", "--rho-max", "0.4",
         "--steps", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"][0] == "rho"
    assert len(payload["rows"]) == 3


# ---------------------------------------------------------------------------
# limits


def test_limits_table(capsys):
    code, out, _ = run(capsys, ["limits", "--n-min", "3", "--n-max", "5", "--m-max", "3"])
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    by_key = {(r["n"], r["m"]): r for r in rows}
    assert by_key[(3, 1)]["radicand"] == "5/2"
    assert by_key[(3, 1)]["is_minimizer"] is True
    assert by_key[(5, 2)]["is_minimizer"] is True
    assert by_key[(5, 1)]["is_minimizer"] is False
    assert by_key[(4, 1)]["value"] == pytest.approx(math.sqrt(21 / 5), rel=1e-12)
    assert all(r["value"] >= r["bound"] for r in rows)


def test_limits_csv_fractions_render_exactly(capsys):
    code, out, _ = run(
        capsys,
        ["limits", "--n-min", "7", "--n-max", "7", "--m-max", "3", "--format", "csv"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    row = next(r for r in rows if r["m"] == "3")
    assert Fraction(row["radicand"]) == Fraction(273, 22)


# ---------------------------------------------------------------------------
# expand


def test_expand_F_window(capsys):
    code, out, _ = run(capsys, ["expand", "--target", "F"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lo"] == -1
    coeffs = payload["coefficients"]
    assert coeffs["-1"] == "1/2"
    assert coeffs["1"] == "1/6"
    assert coeffs["3"] == "-1/90"


def test_expand_s0_and_sm(capsys):
    code, out, _ = run(capsys, ["expand", "--target", "S0", "--n", "3", "--order", "1"])
    payload = json.loads(out)
    assert code == 0
    assert payload["coefficients"]["-2"] == "1/4"
    code, out, _ = run(
        capsys, ["expand", "--target", "Sm", "--n", "2", "--m", "1", "--order", "3"]
    )
    payload = json.loads(out)
    assert payload["coefficients"]["-2"] == "1/4"
    assert payload["coefficients"]["0"] == "-1/12"


@pytest.mark.parametrize(
    "argv, length",
    [(["--target", "S0", "--n", "200"], 201), (["--target", "Sm", "--n", "200", "--m", "3"], 204)],
)
def test_expand_large_dimension_is_quick(capsys, argv, length):
    # S_0 = F^(n-1) costs O(window^2) whatever n is, so n = 200 runs in about a second
    code, out, _ = run(capsys, ["expand", *argv])
    assert code == 0
    assert len(json.loads(out)["coefficients"]) == length


# sha256 of the exact `zonalvar expand` output, recorded with the Fraction-based
# engine that preceded the integer-numerator one, so an engine rewrite cannot
# change the output bytes silently.  The output carries meta.version, so a
# version bump needs new digests.
EXPAND_DIGESTS = {
    **{
        ("--target", target, "--n", "5", "--m", "2"): digest
        for target, digest in (
            # F ignores --n and --m: meta.config records n as null, and the
            # payload has neither
            ("F", "044f03e5a6819afc0b94d0d362cdc96d70b1da2882be4429f6a98e1cf904da72"),
            ("S0", "e5ac880dd8422d32b267df2633c96416e30ef62032ed6f32f8b144df5b889c84"),
            ("Sm", "30d118296e139938b2b007235b205baf320214f94476d00f857fa373412a3729"),
            ("A", "bd8e7425b9d99557d4d0e581103f5ab38436b3300d96a242671cc5a418930bef"),
            ("B", "3c35b12c5a98bb13d25dc0c767192bf4e1786d9ea91f508d1ce44f9e8dabb470"),
            ("C", "277e5898c24fa56fda64eeabb58b64cc6855242d045a8e830ab089375126946b"),
            ("varS", "ddd22cd0c308bb3099bb6620f5f79ba1c3c40db921c6a3eae35e7f78436bc545"),
            ("varM", "e12d683d40f5910cf199f9218e0db09618e155bed2c70690b1f2bb6762810e9a"),
            ("U", "f6c4eb51e601f5529fcbf1d8c4a56059bd32d80a7be7dcbf3e77d68fa3781b68"),
        )
    },
    **{
        ("--target", target, "--n", n, "--m", "10"): digest
        for target, n, digest in (
            ("varS", "48", "b981b245532e80bbfaf575770ba98ef222e5d5da3c61a8bf7e71d5fb79c420b1"),
            ("varM", "48", "9f9a03d57e4f44cdb03b63c6af16a9ba14b93460fed28027deaf42ecd8699e7a"),
            ("U", "48", "598b83e3b52facd2ed3a836b614e8fc9f04921de6086ddc1e77b12c148d3924c"),
            ("varS", "400", "221d8d5f03bb5cdd34b90950584d40eb2e871f2f9d59e45b4e7c2eb56eb0df6f"),
            ("varM", "400", "f4b7fedee8949cbb329e47227f9091fed972dc8d4a0ef77b40b782b5515c0e7d"),
            ("U", "400", "08a771079200726ac55f7a8953607f2d1dff735cc3a5ce89fc2da54e63caf208"),
        )
    },
    ("--target", "A", "--n", "12", "--m", "2", "--order", "3"):
        "140984126f0d2bef4c00a77bccec409e4f5ccdaf35f8aa0c2431bd76f33a2f2d",
    ("--target", "F", "--order", "12"):
        "7daf5510999828a30a91ebd80de4eae5e3653348adcd6851b67fe24593b15615",
}


def test_expand_output_bytes_are_pinned(capsys):
    changed = []
    for argv, digest in EXPAND_DIGESTS.items():
        code, out, _ = run(capsys, ["expand", *argv])
        assert code == 0, argv
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(" ".join(argv))
    assert not changed, changed


def test_expand_F_ignores_n(capsys):
    # F does not depend on n, so an --n leaves no trace in the output
    _, plain, _ = run(capsys, ["expand", "--target", "F"])
    code, with_n, _ = run(capsys, ["expand", "--target", "F", "--n", "1"])
    assert code == 0
    assert with_n == plain


def test_expand_variance_targets(capsys):
    code, out, _ = run(capsys, ["expand", "--target", "varS", "--n", "3", "--m", "1"])
    payload = json.loads(out)
    assert payload["coefficients"]["2"] == "1/3"
    code, out, _ = run(capsys, ["expand", "--target", "U", "--n", "3", "--m", "1"])
    payload = json.loads(out)
    assert payload["radicand"] == "5/2"
    assert payload["shift"] == 0
    assert payload["tail"]["coefficients"]["1"] == "1/6"


def test_expand_fixed_window_rejects_order(capsys):
    code, _, err = run(
        capsys, ["expand", "--target", "varS", "--n", "3", "--m", "1", "--order", "5"]
    )
    assert code == 64
    assert "omit --order" in err


def test_expand_requires_parameters(capsys):
    code, _, err = run(capsys, ["expand", "--target", "Sm", "--n", "3"])
    assert code == 64
    assert "requires --m" in err


# ---------------------------------------------------------------------------
# verify and plumbing


def test_verify_report(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["mandatory_pass"] is True
    assert report["summary"]["exit_code"] == 0
    assert report["appendix_ABC"]["all_match"] is True
    assert report["theorem_coefficients"]["all_match"] is False
    assert report["summary"]["stated_discrepancies"] == 12
    assert report["summary"]["flagged_pairs_confirmed_by_numerics"] is True
    assert report["path_equivalence"]["max_relative_deviation"] <= 1e-9
    assert report["bound_check"]["min_excess_ratio"] >= -1e-9
    assert report["minimization"]["probe_signs_ok"] is True
    mismatch = report["theorem_coefficients"]["mismatches"][0]
    assert {"n", "m", "target", "engine", "stated"} <= set(mismatch)


def test_verify_report_is_identical_when_repeated():
    # the first report builds the engine's memoised expansions, the second
    # reads them back
    for cached in (laurent._s_rows, laurent._abc_numerators, laurent.expand_variances):
        cached.cache_clear()
    first, second = (json.dumps(build_verify_report()[0], sort_keys=True, default=str) for _ in range(2))
    assert first == second


def test_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZONALVAR_OUTPUT_DIR", str(tmp_path))
    code, out, err = run(
        capsys,
        ["compute", "--n", "3", "--m", "1", "--rho", "0.5", "-o", "out/record.json"],
    )
    assert code == 0
    assert out == ""
    target = tmp_path / "out" / "record.json"
    assert target.exists()
    record = json.loads(target.read_text())
    assert record["n"] == 3
    assert str(target) in err


def test_absolute_output_ignores_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZONALVAR_OUTPUT_DIR", str(tmp_path / "unused"))
    target = tmp_path / "direct.json"
    code, _, _ = run(
        capsys,
        ["compute", "--n", "2", "--m", "1", "--rho", "0.4", "-o", str(target)],
    )
    assert code == 0
    assert target.exists()
    assert not (tmp_path / "unused").exists()


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 64
