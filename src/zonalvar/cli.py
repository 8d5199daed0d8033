"""Command-line interface.

Subcommands:

    compute   uncertainty product of one Poisson wavelet, both computation paths
    sweep     table of the functionals over a geometric grid of scales
    limits    scale-free limits and their minimizing order
    expand    exact expansion coefficients as JSON
    verify    run the full internal verification suite and report

All output is deterministic byte-for-byte for a fixed invocation: no
timestamps, floats rendered by repr (JSON) or with 17 significant digits
(CSV), exact rationals rendered as "p/q" strings.

Exit codes: 0 success, 1 verification found a genuine mismatch, 2 degenerate
input, 3 series truncation failure, 64 usage error or invalid argument.
The coefficient sums behind compute and verify stop by the library's one
fixed stop rule, so no command has series options.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import click

from . import __version__
from .asymptotics import (
    EXPANSION_TARGETS,
    EXPECTED_PROBE_SIGNS,
    compare_expansion,
    denominator_coefficient_table,
    f_sign_probes,
    limit_uncertainty,
    minimize_limit_over_order,
    momentum_numerator_coefficient_table,
    numerator_coefficient_table,
    _residual_fits,
)
from .errors import DegenerateInputError, DomainError, TruncationError
from .laurent import derive_ABC, expand_F, expand_s0, expand_sm, expand_variances
from .variance import _BOUND_SLACK, UncertaintyResult, poisson_uncertainty_via_s, uncertainty_product
from .zonal import PoissonWaveletSpec, capped_wavelet_coefficients, poisson_wavelet_spec

ENV_OUTPUT_DIR = "ZONALVAR_OUTPUT_DIR"

PATH_GRID_N = (2, 3, 4, 5, 8)
PATH_GRID_M = (1, 2, 3)
PATH_GRID_RHO = (0.02, 0.05, 0.1, 0.5, 1.0)
PATH_TOLERANCE = 1e-9
BOUND_TOLERANCE = _BOUND_SLACK  # how far below n/2 a product counts as a defect
RESIDUAL_GRID_NM = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
                    (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3))
RESIDUAL_THRESHOLDS = {"varS": 3.5, "U": 1.9, "varM": -0.1}


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise click.UsageError(message)


def _require(cond: bool, message: str) -> None:
    """A value check of a command: one ``invalid argument:`` line, as the library's."""
    if not cond:
        raise DomainError(message)


def _meta(command: str, config: dict) -> dict:
    return {"tool": "zonalvar", "version": __version__, "command": command, "config": config}


def _fraction_text(value) -> str:
    """An exact rational as its "p/q" string; any other value json cannot write fails."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False, default=_fraction_text) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(meta: dict, columns: Sequence[str], rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    buf.write(f"# {meta['tool']} {meta['version']}\r\n")
    buf.write(f"# command: {meta['command']}\r\n")
    config = " ".join(f"{k}={v}" for k, v in meta["config"].items())
    buf.write(f"# config: {config}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(list(columns))
    for row in rows:
        writer.writerow([_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False)
        return
    path = Path(output)
    if not path.is_absolute():
        base = os.environ.get(ENV_OUTPUT_DIR)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    click.echo(f"wrote {path}", err=True)


def _relative_deviation(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _compare_paths(spec: PoissonWaveletSpec) -> tuple[UncertaintyResult, dict]:
    """The S-path result, and its relative deviation from the coefficient-sum
    path for each of var_space, var_momentum and product.

    The coefficient path sums the wavelet's rule with 1/sigma(S^n) capped at
    1, which has the same variances and keeps f_hat^2 in range for large n.
    """
    fast = poisson_uncertainty_via_s(spec)
    direct = uncertainty_product(capped_wavelet_coefficients(spec))
    return fast, {
        quantity: _relative_deviation(getattr(fast, quantity), getattr(direct, quantity))
        for quantity in ("var_space", "var_momentum", "product")
    }


@click.group()
@click.version_option(version=__version__, prog_name="zonalvar")
def cli() -> None:
    """Variance functionals of Poisson multipole wavelets on the n-sphere."""


_output = click.option("--output", "-o", default=None, help="output file (stdout if omitted)")


@cli.command()
@click.option("--n", type=int, required=True, help="sphere dimension")
@click.option("--m", type=int, required=True, help="wavelet order")
@click.option("--rho", type=float, required=True, help="scale parameter")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@_output
def compute(n, m, rho, fmt, output):
    """Uncertainty product of one wavelet, cross-checked over both paths."""
    fast, deviations = _compare_paths(poisson_wavelet_spec(n, m, rho))
    agreement = max(deviations.values())
    _, limit_value = limit_uncertainty(n, m)
    record = {
        "n": n,
        "m": m,
        "rho": rho,
        "var_space": fast.var_space,
        "var_momentum": fast.var_momentum,
        "product": fast.product,
        "limit_value": limit_value,
        "bound": 0.5 * n,
        "path_agreement": agreement,
    }
    meta = _meta("compute", {"n": n, "m": m, "rho": rho})
    if fmt == "json":
        _emit(_json_text({"meta": meta, **record}), output)
    else:
        _emit(_csv_text(meta, list(record), [record]), output)


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--rho-min", type=float, required=True)
@click.option("--rho-max", type=float, required=True)
@click.option("--steps", type=int, default=16, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@_output
def sweep(n, m, rho_min, rho_max, steps, fmt, output):
    """Functionals over a geometric grid of scales, with the engine asymptote."""
    _require(rho_min > 0, "rho-min must be > 0")
    _require(rho_max > rho_min, "rho-max must exceed rho-min")
    _require(steps >= 2, "steps must be >= 2")
    span = rho_max / rho_min
    _require(math.isfinite(span) or not math.isfinite(rho_max),
             "rho-max / rho-min exceeds the double range; narrow the range")
    _, _, product_series = expand_variances(n, m)
    ratio = span ** (1.0 / (steps - 1))
    rhos = [rho_min * ratio**i for i in range(steps)]
    rhos[-1] = rho_max
    rows = []
    for rho in rhos:
        row = {"rho": rho, "var_space": None, "var_momentum": None, "product": None,
               "asymptotic_product": None, "residual": None, "status": "ok"}
        try:
            res = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, rho))
        except DegenerateInputError:
            row["status"] = "degenerate"
        else:
            asymptote = product_series.evaluate(rho)
            row.update(
                var_space=res.var_space,
                var_momentum=res.var_momentum,
                product=res.product,
                asymptotic_product=asymptote,
                residual=res.product - asymptote,
            )
        rows.append(row)
    columns = ["rho", "var_space", "var_momentum", "product", "asymptotic_product",
               "residual", "status"]
    meta = _meta("sweep", {"n": n, "m": m, "rho_min": rho_min, "rho_max": rho_max,
                           "steps": steps})
    if fmt == "csv":
        _emit(_csv_text(meta, columns, rows), output)
    else:
        _emit(_json_text({"meta": meta, "columns": columns, "rows": rows}), output)


@cli.command()
@click.option("--n-min", type=int, default=2, show_default=True)
@click.option("--n-max", type=int, default=10, show_default=True)
@click.option("--m-max", type=int, default=4, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@_output
def limits(n_min, n_max, m_max, fmt, output):
    """Scale-free limit values and the minimizing order for each n."""
    _require(n_max >= n_min, "n-max must be >= n-min")
    _require(m_max >= 1, "m-max must be >= 1")
    rows = []
    for n in range(n_min, n_max + 1):
        minimum = minimize_limit_over_order(n)
        for m in range(1, max(m_max, minimum.m_star) + 1):
            radicand, value = limit_uncertainty(n, m)
            rows.append({
                "n": n,
                "m": m,
                "radicand": radicand,
                "value": value,
                "bound": 0.5 * n,
                "is_minimizer": m == minimum.m_star,
            })
    columns = ["n", "m", "radicand", "value", "bound", "is_minimizer"]
    meta = _meta("limits", {"n_min": n_min, "n_max": n_max, "m_max": m_max})
    if fmt == "json":
        _emit(_json_text({"meta": meta, "columns": columns, "rows": rows}), output)
    else:
        _emit(_csv_text(meta, columns, rows), output)


def _series_payload(series) -> dict:
    return {
        "lo": series.lo,
        "order": series.order,
        "coefficients": {str(e): c for e, c in series.window_coefficients()},
    }


@cli.command()
@click.option("--target", type=click.Choice(["F", "S0", "Sm", "A", "B", "C", "varS", "varM", "U"]),
              required=True)
@click.option("--n", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--order", type=int, default=None)
@_output
def expand(target, n, m, order, output):
    """Exact expansion coefficients of one quantity, as JSON."""
    needs_n = target != "F"
    needs_m = target in ("Sm", "A", "B", "C", "varS", "varM", "U")
    _check(n is not None or not needs_n, f"target {target} requires --n")
    _check(m is not None or not needs_m, f"target {target} requires --m")
    n = n if needs_n else None  # F does not depend on n
    m = m if needs_m else None  # nor do F and S0 on m
    meta = _meta("expand", {"target": target, "n": n, "m": m, "order": order})
    payload: dict = {"meta": meta, "target": target}
    if n is not None:
        payload["n"] = n
    if m is not None:
        payload["m"] = m
    if target == "F":
        payload.update(_series_payload(expand_F(4 if order is None else order)))
    elif target == "S0":
        payload.update(_series_payload(expand_s0(n, 2 if order is None else order)))
    elif target == "Sm":
        payload.update(_series_payload(expand_sm(n, m, 2 if order is None else order)))
    elif target in ("A", "B", "C"):
        series = derive_ABC(n, m, order)[("A", "B", "C").index(target)]
        payload.update(_series_payload(series))
    else:
        _check(order is None, f"target {target} has a fixed window; omit --order")
        var_space, var_momentum, product = expand_variances(n, m)
        if target == "varS":
            payload.update(_series_payload(var_space))
        elif target == "varM":
            payload.update(_series_payload(var_momentum))
        else:
            payload.update({
                "radicand": product.radicand,
                "shift": product.shift,
                "tail": _series_payload(product.tail),
            })
    _emit(_json_text(payload), output)


def _verify_appendix_section() -> dict:
    entries = []
    mismatches = []
    for n in range(3, 11):
        for m in range(1, 5):
            ell = n + 2 * m
            a_series, b_series, c_series = derive_ABC(n, m)
            entry: dict = {"n": n, "m": m}
            for target, series, lead, count, table in (
                ("A", a_series, ell, 4, numerator_coefficient_table),
                ("B", b_series, ell, 4, denominator_coefficient_table),
                ("C", c_series, ell + 2, 2, momentum_numerator_coefficient_table),
            ):
                if n < 5 and target != "C":  # the stated A and B tables start at n = 5
                    continue
                engine = [series.coefficient(-lead + i) * 2**lead for i in range(count)]
                stated = table(n, m)
                entry[target] = engine == stated
                if not entry[target]:
                    mismatches.append({"n": n, "m": m, "target": target,
                                       "engine": engine, "stated": stated})
            entries.append(entry)
    all_match = not mismatches
    return {
        "grid": "A,B: n=5..10, m=1..4; C: n=3..10, m=1..4",
        "all_match": all_match,
        "entries": entries,
        "mismatches": mismatches,
        "pass": all_match,
    }


def _verify_theorem_section() -> dict:
    entries = []
    mismatches = []
    for n in range(2, 11):
        for m in range(1, 5):
            comparison = compare_expansion(n, m)
            matches = {t: comparison[t]["match"] for t in EXPANSION_TARGETS}
            entries.append({"n": n, "m": m, "matches": matches})
            for t in EXPANSION_TARGETS:
                if not matches[t]:
                    mismatches.append({
                        "n": n, "m": m, "target": t,
                        "engine": comparison[t]["engine"],
                        "stated": comparison[t]["stated"],
                    })
    return {
        "grid": "n=2..10, m=1..4",
        "all_match": not mismatches,
        "entries": entries,
        "mismatches": mismatches,
        "note": (
            "engine coefficients are derived from the defining series and are "
            "authoritative; stated entries that disagree are accepted only if "
            "the engine expansion is confirmed numerically in residual_orders"
        ),
    }


def _verify_path_and_bound() -> tuple[dict, dict]:
    worst = {"deviation": 0.0}
    min_excess = math.inf
    points = 0
    for n in PATH_GRID_N:
        for m in PATH_GRID_M:
            for rho in PATH_GRID_RHO:
                fast, deviations = _compare_paths(poisson_wavelet_spec(n, m, rho))
                for quantity, dev in deviations.items():
                    if dev > worst["deviation"]:
                        worst = {"deviation": dev, "n": n, "m": m, "rho": rho,
                                 "quantity": quantity}
                excess = fast.product / (0.5 * n) - 1.0
                min_excess = min(min_excess, excess)
                points += 1
    for n in PATH_GRID_N:
        for m in PATH_GRID_M:
            fast = poisson_uncertainty_via_s(poisson_wavelet_spec(n, m, 1e-3))
            excess = fast.product / (0.5 * n) - 1.0
            min_excess = min(min_excess, excess)
            points += 1
    path_section = {
        "grid": f"n in {list(PATH_GRID_N)}, m in {list(PATH_GRID_M)}, rho in {list(PATH_GRID_RHO)}",
        "tolerance": PATH_TOLERANCE,
        "max_relative_deviation": worst["deviation"],
        "worst_point": worst,
        "pass": worst["deviation"] <= PATH_TOLERANCE,
    }
    bound_section = {
        "points": points,
        "tolerance": BOUND_TOLERANCE,
        "min_excess_ratio": min_excess,
        "pass": min_excess >= -BOUND_TOLERANCE,
    }
    return path_section, bound_section


def _verify_minimization_section() -> dict:
    entries = []
    ok = True
    for n in range(5, 41):
        try:
            result = minimize_limit_over_order(n)
        except RuntimeError as exc:
            entries.append({"n": n, "error": str(exc)})
            ok = False
            continue
        entries.append({"n": n, "m_star": result.m_star, "radicand": result.radicand,
                        "value": result.value})
    try:
        top = minimize_limit_over_order(100)
        ratio = top.value / 50.0
        ratio_entry = {"n": 100, "ratio_to_bound": ratio,
                       "pass": 1.0 < ratio < 1.0001}
        ok = ok and ratio_entry["pass"]
    except RuntimeError as exc:
        ratio_entry = {"n": 100, "error": str(exc)}
        ok = False
    probes_ok = True
    for n in (5, 7, 10):
        signs = tuple(sign for _, sign in f_sign_probes(n))
        if signs != EXPECTED_PROBE_SIGNS:
            probes_ok = False
    return {
        "range": "n=5..40",
        "entries": entries,
        "ratio_n100": ratio_entry,
        "probe_signs_ok": probes_ok,
        "pass": ok and probes_ok,
    }


def _verify_residual_section(flagged_pairs: list[tuple[int, int]]) -> dict:
    pairs = list(RESIDUAL_GRID_NM)
    for pair in flagged_pairs:
        if pair not in pairs:
            pairs.append(pair)
    entries = []
    all_pass = True
    for n, m in pairs:
        entry: dict = {"n": n, "m": m, "flagged": (n, m) in flagged_pairs}
        entry_pass = True
        vacuous_any = False
        fits = _residual_fits(n, m)
        for quantity, threshold in RESIDUAL_THRESHOLDS.items():
            fit = fits[quantity]
            entry[f"{quantity}_slope"] = fit.slope
            vacuous_any = vacuous_any or fit.vacuous
            if not fit.vacuous and fit.slope < threshold:
                entry_pass = False
        entry["vacuous"] = vacuous_any
        entry["pass"] = entry_pass
        entries.append(entry)
        all_pass = all_pass and entry_pass
    return {
        "grid": "n in {2,3,4,5,7} x m in {1,2,3}, plus flagged pairs",
        "thresholds": RESIDUAL_THRESHOLDS,
        "entries": entries,
        "pass": all_pass,
    }


def build_verify_report() -> tuple[dict, int]:
    """Assemble the verification report; returns (report, exit_code)."""
    appendix = _verify_appendix_section()
    theorem = _verify_theorem_section()
    path_section, bound_section = _verify_path_and_bound()
    minimization = _verify_minimization_section()
    flagged_pairs = list(dict.fromkeys((e["n"], e["m"]) for e in theorem["mismatches"]))
    residuals = _verify_residual_section(flagged_pairs)
    mandatory_pass = all(
        section["pass"] for section in (appendix, path_section, bound_section, minimization, residuals)
    )
    report = {
        "meta": _meta("verify", {}),
        "appendix_ABC": appendix,
        "theorem_coefficients": theorem,
        "path_equivalence": path_section,
        "bound_check": bound_section,
        "minimization": minimization,
        "residual_orders": residuals,
        "summary": {
            "mandatory_pass": mandatory_pass,
            "stated_discrepancies": len(theorem["mismatches"]),
            "flagged_pairs_confirmed_by_numerics": all(
                e["pass"] for e in residuals["entries"] if e["flagged"]
            ),
            "exit_code": 0 if mandatory_pass else 1,
        },
    }
    return report, 0 if mandatory_pass else 1


@cli.command()
@_output
def verify(output):
    """Run the internal verification suite and emit its JSON report."""
    report, code = build_verify_report()
    _emit(_json_text(report), output)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        rv = cli.main(args=argv, standalone_mode=False, prog_name="zonalvar")
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 64
    except DegenerateInputError as exc:
        click.echo(f"degenerate input: {exc}", err=True)
        return 2
    except TruncationError as exc:
        click.echo(f"series truncation failure: {exc}", err=True)
        return 3
    except DomainError as exc:
        click.echo(f"invalid argument: {exc}", err=True)
        return 64
    return 0 if rv is None else int(rv)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
