"""Command-line contract: formats, determinism, exit codes."""

import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zonalvar
from zonalvar import laurent, poisson_uncertainty_via_s, poisson_wavelet_spec, series_s
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
    "sweep --n 3 --m 1 --rho-min 0 --rho-max 1",
    "sweep --n 3 --m 1 --rho-min 0.2 --rho-max 0.1",
    "sweep --n 3 --m 1 --rho-min 0.1 --rho-max 0.2 --steps 1",
    "sweep --n 3 --m 1 --rho-min 1e-300 --rho-max 1e10 --steps 3",
    "limits --n-min 1",
    "limits --n-min 5 --n-max 3",
    "limits --m-max 0",
    "expand --target S0 --n 1",
    "expand --target Sm --n 3 --m -1",
    "expand --target A --n 3 --m 0",
    "expand --target varS --n 1 --m 1",
])
def test_value_outside_the_domain_is_one_invalid_argument_line(capsys, argv):
    # the library's check answers where it sees the value; the command's own
    # checks (the sweep range, the limits table) answer in the same form
    code, out, err = run(capsys, argv.split())
    assert code == 64
    assert out == ""
    assert err.startswith("invalid argument:") and err.count("\n") == 1 and err.endswith("\n")


def test_sweep_range_past_the_double_range_names_the_cause(capsys):
    # both bounds are valid scales, but rho-max / rho-min overflows
    argv = "sweep --n 3 --m 1 --rho-min 1e-300 --rho-max 1e10 --steps 3".split()
    code, out, err = run(capsys, argv)
    assert (code, out) == (64, "")
    assert err == "invalid argument: rho-max / rho-min exceeds the double range; narrow the range\n"


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
    assert err.startswith("degenerate input:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("n, m, rho, l", [(3, 400, 5.0, 1), (5, 400, 4.559, 1)])
def test_compute_past_the_coefficient_range_names_the_degree(capsys, n, m, rho, l):
    # every argument is valid and the S path finite, but f_hat(l)^2 overflows
    # (at (3, 1000, 1) too, where the S path alone takes ~20 s: see
    # test_variance.py::test_out_of_range_wavelet_terms_are_degenerate)
    code, out, err = run(capsys, ["compute", "--n", str(n), "--m", str(m), "--rho", str(rho)])
    assert (code, out) == (2, "")
    assert err == (
        f"degenerate input: coefficient sums for capped-wavelet(n={n}, m={m}, rho={rho}) "
        f"left the double range at l={l}\n"
    )


def test_compute_corner_grid_exits_0_or_2(capsys):
    # the corners of the domain 2 <= n <= 1000, 1 <= m <= 100, 1e-3 <= rho <= 1e3,
    # and both sides of n = 17 (the capped rule's switch) and n = 437 (sigma(S^n)'s range)
    for n, m, rho in itertools.product((2, 17, 18, 437, 438, 1000), (1, 100), (1e-3, 1.0, 1e3)):
        code, out, err = run(capsys, ["compute", "--n", str(n), "--m", str(m), "--rho", str(rho)])
        if code == 0:
            assert err == "" and math.isfinite(json.loads(out)["product"]), (n, m, rho)
        else:
            assert code == 2 and out == "", (n, m, rho, err)
            assert err.startswith("degenerate input:") and err.count("\n") == 1, (n, m, rho, err)


def test_compute_truncation_budget_exit_code(capsys):
    # the coefficient sums at rho = 1e-6 need more than the 10,000,000 terms
    # of the one stop policy
    code, out, err = run(capsys, ["compute", "--n", "3", "--m", "1", "--rho", "1e-6"])
    assert code == 3
    assert out == ""
    assert err.startswith("series truncation failure:")


def test_meta_config_records_only_the_arguments(capsys):
    # the stop policy is fixed, so neither command echoes it
    assert series_s._MAX_TERMS == 10_000_000
    code, out, _ = run(capsys, ["compute", "--n", "3", "--m", "1", "--rho", "0.1"])
    assert code == 0
    assert list(json.loads(out)["meta"]["config"].items()) == [("n", 3), ("m", 1), ("rho", 0.1)]
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    assert json.loads(out)["meta"]["config"] == {}


def test_compute_deterministic_output(capsys):
    argv = ["compute", "--n", "4", "--m", "2", "--rho", "0.3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


# sha256 of `zonalvar compute` stdout (exit 0) or stderr (exit 2), so a
# change to the coefficient sums cannot move a digit of the output silently.
# The output carries meta.version, so a version bump needs new digests.
COMPUTE_DIGESTS = {
    (3, 2, 0.5): (0, "66669b83f373f13d8c7ee580a92b57c1601193fbaa69587523cda8b3aebfcdb3"),
    (5, 2, 0.05): (0, "c45eb713c27e73d82bcfd5d68e4f240c6ed8abc8eb51e2247d5c1a459c2cf419"),
    (12, 4, 1e-3): (0, "db2eb19f8be929a9ba19a981f9ba1a72ffb716bb7e7a62049eb05cea77902f7b"),
    (120, 1, 0.01): (0, "eea5a09151c11641ceae60c766636c54f33b7aca0772a8edcd5b40ab56390840"),
    (2, 50, 0.01): (0, "1ee3cb44a6576c28eb409229948856b72a558f8d29d519d6882d8e4b6da89017"),
    (400, 1, 0.01): (2, "2f88722d184cf5e5c0f0fc106011abdb8175398813e1f3d8662ca6cd779feed3"),
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
    # the coefficient sums always stop by the one fixed stop policy
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
            # F ignores --n and --m, S0 ignores --m: meta.config records them
            # as null, and the payload leaves them out
            ("F", "b7ae4fbb59efd747b8b672a0de919a636f1928b87bec3d5ecb2010d675445945"),
            ("S0", "016f85eb7f8231a0198c45ff0c5ad050e68ef734dca3424642e480c5fd3995e6"),
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


def test_expand_S0_and_F_ignore_m(capsys):
    # S0 and F do not depend on m, so an --m leaves no trace in the output
    for argv in (["--target", "S0", "--n", "3"], ["--target", "F"]):
        _, plain, _ = run(capsys, ["expand", *argv])
        code, with_m, _ = run(capsys, ["expand", *argv, "--m", "7"])
        assert code == 0
        assert with_m == plain


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


def test_verify_summary_reads_its_sections():
    report, code = build_verify_report()
    summary = report["summary"]
    mandatory = ("appendix_ABC", "path_equivalence", "bound_check", "minimization", "residual_orders")
    assert summary["mandatory_pass"] == all(report[name]["pass"] for name in mandatory)
    assert code == summary["exit_code"] == (0 if summary["mandatory_pass"] else 1)
    mismatches = report["theorem_coefficients"]["mismatches"]
    assert summary["stated_discrepancies"] == len(mismatches)
    entries = report["residual_orders"]["entries"]
    flagged = [entry for entry in entries if entry["flagged"]]
    assert summary["flagged_pairs_confirmed_by_numerics"] == all(entry["pass"] for entry in flagged)
    assert {(entry["n"], entry["m"]) for entry in flagged} == {(e["n"], e["m"]) for e in mismatches}


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
