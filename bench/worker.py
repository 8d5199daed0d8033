"""One pass of one benchmark workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --pass-index I
                            [--trace SPANS_FILE | --setup-only | --accuracy-probe]

bench/run.py starts this with ``src`` on PYTHONPATH and reads the one JSON
object it prints.  A fresh process per pass means no cache inside the
package can carry over from one pass to the next.

Set-up time is the time to import zonalvar and zonalvar.cli, and with
them numpy and click; nothing else runs before the first operation.
Set-up time and latencies are rescaled for the machine's current speed
(bench/speed.py).
"""

import sys
import time

from speed import WARM_SAMPLES, SpeedProbe, reference_step, scale_from

_steps = [reference_step() for _ in range(WARM_SAMPLES)]
_T0 = time.perf_counter()
import zonalvar  # noqa: E402
import zonalvar.cli  # noqa: E402

_setup = time.perf_counter() - _T0
_steps += [reference_step() for _ in range(WARM_SAMPLES)]
SETUP_S = _setup * scale_from(_steps)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent

WAVELET_N = (2, 3, 5, 8, 12)
WAVELET_M = (1, 2, 4)
WAVELET_RHO = (5.0, 2.0, 1.0, 0.3, 0.1, 1e-2, 3e-3, 1e-3)
EXACT_N = range(2, 49)
EXACT_M = range(1, 11)
# Accuracy probe for the workloads that compute no float-path result.
PROBE_RHO = (5.0, 0.1, 1e-2)
MAX_ERRORS_SHOWN = 5


def items(workload: str, seed: int, pass_index: int) -> list:
    """The workload's fixed items; the seed only shuffles their order."""
    if workload == "wavelet-grid":
        fixed = [(n, m, rho) for n in WAVELET_N for m in WAVELET_M for rho in WAVELET_RHO]
    elif workload == "verify":
        fixed = [None]
    else:
        fixed = [(n, m) for n in EXACT_N for m in EXACT_M]
    random.Random(f"{seed}/{pass_index}").shuffle(fixed)
    return fixed


def _rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _wavelet_values(n, m, rho, fast, direct) -> list:
    return [n, m, rho, fast.var_space, fast.var_momentum, fast.product,
            direct.var_space, direct.var_momentum, direct.product]


class Wavelet:
    """The work of ``zonalvar compute`` at one (n, m, rho)."""

    def __init__(self, zv, cli) -> None:
        self.zv = zv
        self.path_tol = cli.PATH_TOLERANCE
        self.bound_tol = cli.BOUND_TOLERANCE

    def op(self, item):
        zv = self.zv
        n, m, rho = item
        spec = zv.poisson_wavelet_spec(n, m, rho)
        fast = zv.poisson_uncertainty_via_s(spec)
        direct = zv.uncertainty_product(zv.poisson_wavelet_coefficients(spec))
        return fast, direct, zv.limit_uncertainty(n, m)

    def check(self, item, out):
        n, m, rho = item
        fast, direct, (_, limit_value) = out
        values = _wavelet_values(n, m, rho, fast, direct)
        if not all(math.isfinite(v) for v in values[3:] + [limit_value]):
            return f"non-finite output at {item}", values
        for path, res in (("s", fast), ("coefficient", direct)):
            if res.product / (0.5 * n) - 1.0 < -self.bound_tol:
                return f"{path} path product {res.product} below n/2 at {item}", values
        agreement = max(_rel_dev(a, b) for a, b in zip(values[3:6], values[6:9]))
        if agreement > self.path_tol:
            return f"paths disagree by {agreement:.3g} at {item}", values
        return None, values


class Verify:
    """One ``build_verify_report()``, the work of ``zonalvar verify``."""

    def __init__(self, zv, cli) -> None:
        self.cli = cli
        self.pins = None

    def op(self, item):
        return self.cli.build_verify_report()

    def check(self, item, out):
        report, code = out
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True, default=str).encode()).hexdigest()
        if code != 0 or report["summary"]["mandatory_pass"] is not True:
            return f"verify exit code {code}, summary {report['summary']}", digest
        if self.pins is None:
            self.pins = json.loads((HERE / "pins.json").read_text())["verify_discrepancies"]
        got = [{"n": d["n"], "m": d["m"], "target": d["target"],
                "engine": str(d["engine"]), "stated": str(d["stated"])}
               for d in report["theorem_coefficients"]["mismatches"]]
        if got != self.pins:
            return f"stated discrepancies differ from the pinned 12: {got}", digest
        return None, digest


class Exact:
    """One ``expand_variances(n, m)``."""

    def __init__(self, zv, cli) -> None:
        self.zv = zv
        self.pins = None

    def op(self, item):
        return self.zv.expand_variances(*item)

    def check(self, item, out):
        n, m = item
        var_space, var_momentum, product = out
        ell = n + 2 * m
        if product.radicand != self.zv.limit_uncertainty(n, m)[0]:
            return f"radicand {product.radicand} is not the limit at {item}", None
        if var_momentum.coefficient(-2) != Fraction(ell * (ell + 1), 4):
            return f"var_momentum rho^-2 coefficient is not L(L+1)/4 at {item}", None
        if self.pins is None:
            self.pins = json.loads((HERE / "pins.json").read_text())["engine_coefficients"]
        got = [str(c) for c in (var_space.coefficient(2), var_space.coefficient(3),
                                var_momentum.coefficient(-2), var_momentum.coefficient(-1),
                                product.radicand, product.tail.coefficient(1))]
        if got != self.pins[f"{n},{m}"]:
            return f"engine coefficients {got} differ from the pinned table at {item}", None
        return None, None


WORKLOADS = {"wavelet-grid": Wavelet, "verify": Verify, "exact-expansions": Exact}


def probe(zv) -> list:
    """Both float paths on the fixed accuracy probe, untimed."""
    out = []
    for n in WAVELET_N:
        for m in WAVELET_M:
            for rho in PROBE_RHO:
                spec = zv.poisson_wavelet_spec(n, m, rho)
                out.append(_wavelet_values(n, m, rho, zv.poisson_uncertainty_via_s(spec),
                                           zv.uncertainty_product(zv.poisson_wavelet_coefficients(spec))))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", metavar="SPANS_FILE", default=None)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--accuracy-probe", action="store_true")
    args = parser.parse_args()

    result: dict = {"setup_s": SETUP_S, "module": zonalvar.__file__}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    if args.accuracy_probe:
        result["values"] = probe(zonalvar)
        print(json.dumps(result))
        return 0

    work = items(args.workload, args.seed, args.pass_index)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](zonalvar, zonalvar.cli)

    ops = []
    errors = []
    wall = 0.0
    with SpeedProbe() as speed:
        for item in work:
            spent = speed.spent
            start = time.perf_counter()
            try:
                out = workload.op(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                wall += time.perf_counter() - start
                ops.append([item, None, False, None])
                errors.append(f"{item}: {type(exc).__name__}: {exc}")
                continue
            end = time.perf_counter()
            latency = (end - start - (speed.spent - spent)) * speed.scale(start, end)
            wall += end - start
            try:
                problem, record = workload.check(item, out)
            except Exception as exc:  # a check that cannot run is a failed check
                problem, record = f"{item}: check raised {type(exc).__name__}: {exc}", None
            if problem:
                errors.append(problem)
            ops.append([item, latency, problem is None, record])
    result["slowdown"] = 1.0 / scale_from(speed.steps)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["wall_s"] = wall
    result["ops"] = ops
    result["errors"] = errors[:MAX_ERRORS_SHOWN]
    result["path_tolerance"] = zonalvar.cli.PATH_TOLERANCE
    if tracer is not None:
        tracer.finish()
        result["layers"] = tracer.layer_metrics(wall)
        result["missing"] = tracer.missing
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
