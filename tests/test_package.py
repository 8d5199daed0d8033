"""The package boundary: public names, integer arguments, the README's examples."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zonalvar

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "BoundViolationError", "DegenerateInputError", "DomainError",
    "EXPANSION_TARGETS", "EXPECTED_PROBE_SIGNS", "ExpansionCase", "MinimizationResult",
    "NormalizedRadicalSeries", "PoissonWaveletSpec", "ResidualFit",
    "SphereDim", "TruncatedLaurentSeries", "TruncationError", "UncertaintyResult",
    "ZonalFunction", "binomial", "capped_wavelet_coefficients", "compare_expansion",
    "denominator_coefficient_table", "derive_ABC", "engine_expansion", "expand_F",
    "expand_s0", "expand_sm", "expand_variances", "f_derivative", "f_function",
    "f_sign_probes", "gegenbauer_eval", "limit_uncertainty", "minimize_limit_over_order",
    "momentum_numerator_coefficient_table", "numerator_coefficient_table",
    "poisson_kernel_coefficients", "poisson_kernel_eval", "poisson_uncertainty_via_s",
    "poisson_wavelet_coefficients", "poisson_wavelet_spec", "residual_order_check",
    "s_m_eval", "s_m_sum", "sphere_dim", "sphere_surface", "theorem_expansion",
    "uncertainty_product", "zonal_eval",
]
MODULES = ("asymptotics", "errors", "laurent", "series_s", "special_functions", "variance", "zonal")


def test_public_names_are_the_modules_all():
    assert sorted(zonalvar.__all__) == PUBLIC_NAMES
    assert len(set(zonalvar.__all__)) == len(zonalvar.__all__)
    modules = [getattr(zonalvar, name) for name in MODULES]
    assert sorted(name for module in modules for name in module.__all__) == PUBLIC_NAMES
    for module in modules:
        for name in module.__all__:
            assert getattr(zonalvar, name) is getattr(module, name), name


def test_numpy_integers_are_plain_integers():
    # in a fresh process, so that no warm cache entry can hide a numpy
    # integer reaching the exact integer polynomials first
    code = (
        "import numpy as np\n"
        "from zonalvar import *\n"
        "calls = [\n"
        "    lambda k: poisson_uncertainty_via_s(poisson_wavelet_spec(k(5), k(1), 0.1)),\n"
        "    lambda k: s_m_eval(k(5), k(2), 0.1),\n"
        "    lambda k: engine_expansion(k(5), k(2)),\n"
        "    lambda k: expand_variances(k(5), k(2)),\n"
        "    lambda k: minimize_limit_over_order(k(9)),\n"
        "]\n"
        "numpy_first = [call(np.int64) for call in calls]\n"
        "assert numpy_first == [call(int) for call in calls], numpy_first\n"
        "spec = poisson_wavelet_spec(np.int64(5), np.int64(1), 0.1)\n"
        "assert type(spec.dim.n) is int and type(spec.m) is int\n"
    )
    src = str(Path(zonalvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_numpy_integer_orders_are_plain_integers():
    # in a fresh process, with warnings as errors, so that an order
    # computing in int64 shows as an overflow warning or a float result
    code = (
        "import warnings\n"
        "from fractions import Fraction\n"
        "import numpy as np\n"
        "from zonalvar import *\n"
        "warnings.simplefilter('error')\n"
        "radicand, _ = limit_uncertainty(5, np.int64(2))\n"
        "assert type(radicand) is Fraction and radicand == Fraction(45, 7), radicand\n"
        "assert theorem_expansion(3, np.int64(20000)) == theorem_expansion(3, 20000)\n"
        "assert f_derivative(5, np.int64(2)) == f_derivative(5, 2)\n"
    )
    src = str(Path(zonalvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_non_integer_arguments_are_domain_errors():
    calls = [
        lambda: zonalvar.sphere_surface(3.0),
        lambda: zonalvar.binomial(2.5, 1),
        lambda: zonalvar.binomial(3, 1.0),
        lambda: zonalvar.gegenbauer_eval(2.0, 1, 0.3),
        lambda: zonalvar.limit_uncertainty(5, 1.5),
    ]
    for call in calls:
        with pytest.raises(zonalvar.DomainError, match="must be an integer"):
            call()


def _stated(comment):
    """The comma-separated items of a trailing comment (commas inside
    parentheses stay), each as (attribute or None, text)."""
    items = re.split(r",\s*(?![^(]*\))", comment)
    return [(m.group(1), m.group(2)) if (m := re.fullmatch(r"(\w+)=(.*)", item)) else (None, item)
            for item in items]


def _agrees(text, claim):
    # "..." ends a claim that shows only the leading digits
    return text.startswith(claim[:-3]) if claim.endswith("...") else text == claim


def test_readme_python_blocks_give_the_values_their_comments_state():
    # A comment on an assignment states the repr of each target in turn, or
    # attr=repr of the one target's attributes; a comment on a print states
    # the str of each printed argument.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 3
    checked = 0
    for block in blocks:
        lines = block.splitlines()
        namespace = {}
        for stmt in ast.parse(block).body:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            _, hash_mark, comment = lines[stmt.end_lineno - 1].partition("  #")
            if not hash_mark:
                continue
            stated = _stated(comment.strip())
            if isinstance(stmt, ast.Assign):
                target = stmt.targets[0]
                values = [namespace[t.id] for t in getattr(target, "elts", [target])]
                shown = [repr(values[i] if attr is None else getattr(values[0], attr))
                         for i, (attr, _) in enumerate(stated)]
            else:
                shown = [str(eval(compile(ast.Expression(arg), "README.md", "eval"), namespace))
                         for arg in stmt.value.args]
            for text, (_, claim) in zip(shown, stated, strict=True):
                assert _agrees(text, claim), (lines[stmt.end_lineno - 1], text)
                checked += 1
    assert checked == 8
