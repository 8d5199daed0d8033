"""zonalvar benchmark: one run of one workload.

    python3 bench/run.py --workload {wavelet-grid,verify,exact-expansions}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is taken from ``src``.
A run starts fresh worker processes (bench/worker.py), one pass each, one at
a time, until ``--seconds`` have passed, then prints each metric named in
BENCHMARK.json with its unit and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics.  Spans of
traced passes are written to ``.bench_out/``.  Outputs are checked on every
pass, float-path results also against a 60-digit mpmath oracle
(bench/oracle.py).  Metric definitions are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import Oracle, self_check  # noqa: E402

WORKLOADS = ("wavelet-grid", "verify", "exact-expansions")
# Workloads whose passes compute no float-path result; their accuracy
# metrics come from the fixed probe in bench/worker.py.
PROBED = ("verify", "exact-expansions")
# Set-up-only workers at the start, and again before every pass.
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0
MAX_PROBLEMS_SHOWN = 20
OUT_DIR = ".bench_out"


class BenchError(Exception):
    """The run cannot produce a result."""


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Runner:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.src = (root / "src").resolve()

    def worker(self, pass_index: int, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--pass-index", str(pass_index), *extra]
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("run time limit reached")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the run time limit: {cmd}") from exc
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: {cmd}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"worker printed no result: {cmd}")
        result = json.loads(lines[-1])
        module = Path(result["module"]).resolve()
        if self.src not in module.parents:
            raise BenchError(f"zonalvar was imported from {module}, not from {self.src}")
        return result


class Accuracy:
    """Largest oracle error on each float path, and the points beyond tolerance."""

    def __init__(self, tol: float) -> None:
        self.oracle = Oracle()
        self.tol = tol
        self.s_path = 0.0
        self.coef_path = 0.0
        self.problems: list[str] = []

    def add(self, record: list, label: str = "") -> bool:
        """Score one [n, m, rho, S-path x3, coefficient-path x3] record."""
        n, m, rho = record[:3]
        e_s = self.oracle.rel_err(n, m, rho, record[3:6])
        e_c = self.oracle.rel_err(n, m, rho, record[6:9])
        self.s_path = max(self.s_path, e_s)
        self.coef_path = max(self.coef_path, e_c)
        if max(e_s, e_c) <= self.tol:
            return True
        self.problems.append(f"{label}{(n, m, rho)} off the oracle by {max(e_s, e_c):.3g}")
        return False


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    root = Path.cwd()
    if not (root / "src" / "zonalvar" / "__init__.py").is_file():
        raise BenchError(f"no zonalvar source under {root / 'src'}; run from a checkout root")
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    runner = Runner(root, workload, seed)

    problems = self_check()
    setup = []

    def setup_probe() -> None:
        setup.append(runner.worker(-1, "--setup-only")["setup_s"])

    if not trace:
        for _ in range(SETUP_PROBES):
            setup_probe()

    passes = []  # (traced, result)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    # Start another pass only while it is expected to end within the
    # measuring time, judged by the longest pass so far.
    begin = time.monotonic()
    longest = 0.0
    min_passes = 2 if trace else 1
    while len(passes) < min_passes or time.monotonic() - begin + longest <= seconds:
        i = len(passes)
        traced = trace and i % 2 == 0
        extra = ("--trace", str(out_dir / f"spans-{workload}-seed{seed}-pass{i}.jsonl")) if traced else ()
        started = time.monotonic()
        if not trace:
            for _ in range(SETUP_PROBES):
                setup_probe()
        passes.append((traced, runner.worker(i, *extra)))
        longest = max(longest, time.monotonic() - started)

    accuracy = Accuracy(passes[0][1]["path_tolerance"])
    attempted = failed = 0
    digests = set()
    pass_ok: list[tuple[bool, list[float]]] = []  # (traced, latencies of passing operations)
    for traced, res in passes:
        problems.extend(res["errors"])
        latencies = []
        pass_ok.append((traced, latencies))
        for _, latency, ok, record in res["ops"]:
            attempted += 1
            if workload == "verify" and record is not None:
                digests.add(record)
                ok = ok and len(digests) == 1
            if workload == "wavelet-grid" and record is not None:
                ok = accuracy.add(record) and ok
            if ok:
                latencies.append(latency)
            else:
                failed += 1
    if len(digests) > 1:
        problems.append(f"verify report differs between passes: {sorted(digests)}")

    if workload in PROBED and not trace:
        for record in runner.worker(0, "--accuracy-probe")["values"]:
            accuracy.add(record, "probe ")
    problems.extend(accuracy.problems)

    untraced = [res for traced, res in passes if not traced]
    metrics: dict[str, float] = {}
    if trace:
        traced_runs = [res for traced, res in passes if traced]
        for name in traced_runs[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced_runs)
        walls = {flag: statistics.median(sum(lat) for traced, lat in pass_ok if traced == flag)
                 for flag in (False, True)}
        metrics["trace.overhead_pct"] = (
            100.0 * (walls[True] - walls[False]) / walls[False] if walls[False] else 0.0)
        missing = sorted({name for r in traced_runs for name in r["missing"]})
        if missing:
            print(f"missing spans (reported as 0): {', '.join(missing)}", file=sys.stderr)
    else:
        metrics["setup_s"] = statistics.median(setup + [r["setup_s"] for r in untraced])
        ok_passes = [lat for _, lat in pass_ok if lat]
        metrics["wall_s"] = statistics.median(sum(lat) for lat in ok_passes) if ok_passes else 0.0
        for p in (50, 90):
            metrics[f"op_p{p}_ms"] = (
                1e3 * statistics.median(_percentile(lat, p) for lat in ok_passes) if ok_passes else 0.0)
        metrics["success_rate"] = (attempted - failed) / attempted
        metrics["s_path_max_rel_err"] = accuracy.s_path
        metrics["coef_path_max_rel_err"] = accuracy.coef_path
        metrics["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in untraced)

    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"check failed: {len(problems) - MAX_PROBLEMS_SHOWN} more", file=sys.stderr)
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        raise BenchError(f"metrics not measured: {absent}")
    for m in wanted:
        print(f"{workload} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    walls = " ".join(f"{res['wall_s']:.3f}/{res['slowdown']:.2f}" for _, res in passes)
    print(f"{workload} passes = {len(passes)} (unscaled wall_s/slowdown each: {walls}), "
          f"operations = {attempted}, failed = {failed}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="zonalvar benchmark, one run of one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
