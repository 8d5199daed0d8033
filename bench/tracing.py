"""Spans recorded around calls into the zonalvar modules, from outside them.

Each traced public function is replaced, in every ``zonalvar`` module that
binds it, by a wrapper that records a span (name, start, end, parent).
Replacing every binding is what makes internal calls visible: for example
``poisson_uncertainty_via_s`` reaches ``s_m_eval`` through the name bound in
``zonalvar.variance``, and ``expand_sm`` reaches ``expand_s0`` through
``zonalvar.laurent``.  Spans stay in memory until the pass ends.

Coefficient-rule evaluations are far too many for one span each; they are
timed and counted per enclosing span and stored as one aggregate span whose
duration is their summed time.

Tracing never fails a run: a name that cannot be found is recorded as
missing and its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, function name, module expected to define it)
TRACED = (
    ("series_s.s_m_eval", "s_m_eval", "zonalvar.series_s"),
    ("series_s.s_m_sum", "s_m_sum", "zonalvar.series_s"),
    ("variance.poisson_uncertainty_via_s", "poisson_uncertainty_via_s", "zonalvar.variance"),
    ("variance.uncertainty_product", "uncertainty_product", "zonalvar.variance"),
    ("laurent.expand_variances", "expand_variances", "zonalvar.laurent"),
    ("laurent.derive_ABC", "derive_ABC", "zonalvar.laurent"),
    ("laurent.expand_sm", "expand_sm", "zonalvar.laurent"),
    ("laurent.expand_s0", "expand_s0", "zonalvar.laurent"),
    ("laurent.sqrt_normalized", "sqrt_normalized", "zonalvar.laurent"),
    ("asymptotics.compare_expansion", "compare_expansion", "zonalvar.asymptotics"),
    ("asymptotics.residual_order_check", "residual_order_check", "zonalvar.asymptotics"),
    ("asymptotics.minimize_limit_over_order", "minimize_limit_over_order", "zonalvar.asymptotics"),
    ("cli.verify.appendix", "_verify_appendix_section", "zonalvar.cli"),
    ("cli.verify.theorem", "_verify_theorem_section", "zonalvar.cli"),
    ("cli.verify.path", "_verify_path_and_bound", "zonalvar.cli"),
    ("cli.verify.minimization", "_verify_minimization_section", "zonalvar.cli"),
    ("cli.verify.residual", "_verify_residual_section", "zonalvar.cli"),
)
VERIFY_SECTIONS = ("appendix", "theorem", "path", "minimization", "residual")
COEFF = "zonal.coeff"


def _distinct_key(name: str, args: tuple):
    try:
        if name == "variance.poisson_uncertainty_via_s":
            spec = args[0]
            return (spec.dim.n, spec.m, spec.rho)
        if name == "laurent.expand_variances":
            return (args[0], args[1])
    except (AttributeError, IndexError):
        pass
    return None


def _terms(result) -> int:
    diagnostics = getattr(result, "diagnostics", None)
    try:
        return int(diagnostics["terms"])
    except (TypeError, KeyError, ValueError):
        return int(getattr(diagnostics, "terms", 0) or 0)


TERM_COUNTERS = {
    "variance.poisson_uncertainty_via_s": "series_s.terms",
    "variance.uncertainty_product": "variance.coefficient_terms",
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        # Span id is the index; each entry is (parent, name, start, end, calls).
        self.spans: list = []
        self.missing: list[str] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack = [-1]
        self._aggregates: dict[tuple[int, str], list] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = TERM_COUNTERS.get(name)

        def traced(*args, **kwargs):
            key = _distinct_key(name, args)
            if key is not None:
                self.keys[name].add(key)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (parent, name, start, end, 1)
            if counter is not None:
                self.counters[counter] += _terms(result)
            return result

        return traced

    def counting_rule(self, rule):
        """A coefficient rule that adds its calls and time to the open span."""
        aggregates, stack = self._aggregates, self._stack

        def coeff(l):
            start = perf_counter()
            value = rule(l)
            busy = perf_counter() - start
            agg = aggregates.get((stack[-1], COEFF))
            if agg is None:
                aggregates[(stack[-1], COEFF)] = [1, busy, start]
            else:
                agg[0] += 1
                agg[1] += busy
            return value

        return coeff

    def _wrap_coefficients(self, fn):
        def traced(*args, **kwargs):
            f = fn(*args, **kwargs)
            try:
                return dataclasses.replace(f, coeff=self.counting_rule(f.coeff))
            except (TypeError, AttributeError):
                if COEFF not in self.missing:
                    self.missing.append(COEFF)
                return f

        return traced

    def install(self) -> None:
        """Replace every traced name in every loaded zonalvar module."""
        modules = [mod for mod_name, mod in sorted(sys.modules.items())
                   if mod is not None and (mod_name == "zonalvar" or mod_name.startswith("zonalvar."))]
        targets = [*TRACED, (COEFF, "poisson_wavelet_coefficients", "zonalvar.zonal")]
        for name, attr, home in targets:
            home_mod = sys.modules.get(home)
            original = getattr(home_mod, attr, None)
            if original is None:
                original = next((getattr(mod, attr) for mod in modules if hasattr(mod, attr)), None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap_coefficients(original) if name == COEFF else self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def finish(self) -> None:
        """Close the aggregate spans; call once, after the traced work."""
        for (parent, name), (calls, busy, first) in self._aggregates.items():
            self.spans.append((parent, name, first, first + busy, calls))
        self._aggregates.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time and self time (seconds).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = [0.0] * len(self.spans)
        for parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for sid, (_, name, start, end, calls) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += calls
            entry["incl_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        return dict(out)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass (see bench/README.md)."""
        summary = self.summary()

        def get(name: str, field: str) -> float:
            return summary.get(name, {}).get(field, 0)

        def distinct_ratio(name: str) -> float:
            calls = get(name, "calls")
            return len(self.keys.get(name, ())) / calls if calls else 0.0

        metrics: dict[str, float] = {}
        for name in ("series_s.s_m_eval", "series_s.s_m_sum", "variance.poisson_uncertainty_via_s",
                     "variance.uncertainty_product", COEFF, "laurent.expand_variances",
                     "laurent.derive_ABC", "laurent.expand_sm", "laurent.expand_s0",
                     "asymptotics.compare_expansion", "asymptotics.residual_order_check"):
            metrics[f"{name}.calls"] = get(name, "calls")
            metrics[f"{name}.self_s"] = get(name, "self_s")
        for name in ("laurent.sqrt_normalized", "asymptotics.minimize_limit_over_order"):
            metrics[f"{name}.self_s"] = get(name, "self_s")
        for name in ("variance.poisson_uncertainty_via_s", "laurent.expand_variances"):
            metrics[f"{name}.distinct_ratio"] = distinct_ratio(name)
        metrics["series_s.terms"] = self.counters.get("series_s.terms", 0)
        metrics["variance.coefficient_terms"] = self.counters.get("variance.coefficient_terms", 0)
        covered = 0.0
        for section in VERIFY_SECTIONS:
            incl = get(f"cli.verify.{section}", "incl_s")
            metrics[f"cli.verify.{section}_s"] = incl
            covered += incl
        metrics["cli.verify.coverage_pct"] = 100.0 * covered / wall_s if wall_s > 0 else 0.0
        return metrics

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, calls."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (parent, name, start, end, calls) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, round(start - origin, 9),
                                     round(end - origin, 9), calls]) + "\n")
