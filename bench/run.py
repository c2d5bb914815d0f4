#!/usr/bin/env python3
"""Benchmark of the sdpibounds library: one workload per run, closed loop.

    python3 bench/run.py --workload bounds-small --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  One client runs the ops back to back in this process.  The seed
and ``--seconds`` fix the ops of a run (whole input blocks, see
workloads.py), so every count and accuracy figure depends on them alone.

The reference host (2 vCPUs of an Intel Xeon) runs the same code up to 1.8
times slower from one second to the next.  Op and span times are therefore
scaled to a reference host speed: a fixed calibration kernel, which does
not use the library, runs after each op (about 3 % of the run time), and
the op's raw latency is multiplied by ``CAL_REF_S`` / (mean of the kernel
times measured just before and just after it).  Raw latencies and the
factors are in the record.  Set-up times stay raw (see probe_setup).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
takes the first input block of the same seed, runs it untraced, then
traced, then re-runs each s* call with one search stage switched off, and
prints the per-layer metrics.  ``--workload all`` runs every workload, each
in a fresh process, and prints all their metrics.  A readable table
precedes the last line of stdout, which is one JSON object.  A full record
(environment, per-op latencies, failures, spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.0, 95.0, 90.0)
# Kernel time on the reference host at its usual fast state (Intel Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4).  Calibration runs once per CAL_EVERY_S
# of measured time.
CAL_REF_S = 0.00125
CAL_EVERY_S = 0.05
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Runs in a fresh interpreter: when the code starts, and when the import ends.
PROBE = (
    "import sys, time\n"
    "t0 = time.monotonic()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import sdpibounds\n"
    "print(t0, time.monotonic(), sdpibounds.__file__)\n"
)


class Calibration:
    """Mean time of a fixed numpy kernel over one phase of the run.

    The kernel mimics the library's mix of small-array iterations and a
    vectorized ratio evaluation without calling it, so library changes
    never move it while host speed does.
    """

    def __init__(self):
        import numpy as np
        from scipy.special import rel_entr

        self._np, self._rel_entr = np, rel_entr
        self._a = np.exp2(-np.arange(64.0).reshape(8, 8) / 16.0)
        self._p = np.linspace(1.0, 2.0, 8) / np.linspace(1.0, 2.0, 8).sum()
        self._q = np.random.default_rng(0).dirichlet(np.ones(4), size=4096)
        self._t = np.full((4, 4), 0.1) + 0.6 * np.eye(4)
        self.total = 0.0
        self.count = 0

    def _kernel(self) -> float:
        np, rel_entr = self._np, self._rel_entr
        q = np.full(8, 1.0 / 8)
        for _ in range(100):
            q = q * ((self._p / (self._a @ q)) @ self._a)
            q /= q.sum()
        num = rel_entr(self._q @ self._t, 0.25).sum(axis=1)
        return float(q.sum() + (num / rel_entr(self._q, 0.25).sum(axis=1)).max())

    def after(self, seconds: float) -> float:
        """Sample the kernel in proportion to `seconds` just measured.

        Returns the mean kernel time of these samples.
        """
        reps = max(1, round(seconds / CAL_EVERY_S))
        t0 = time.perf_counter()
        for _ in range(reps):
            self._kernel()
        spent = time.perf_counter() - t0
        self.total += spent
        self.count += reps
        return spent / reps

    @property
    def factor(self) -> float:
        """Multiply a raw time of this phase by this to get reference seconds."""
        return CAL_REF_S * self.count / self.total


def probe_setup(n: int) -> dict:
    """Spawn n interpreters that import the package; medians of the phases.

    setup_s runs from the spawn until the import returns; interpreter_s up
    to the first line of the probe; import_s is the import itself.  These
    stay in raw seconds: process start and import track the calibration
    kernel poorly, and their raw medians drifted less between sets of runs
    (3 %) than the scaled ones (13 %).
    """
    samples = []
    for _ in range(n):
        spawned = time.monotonic()
        out = subprocess.run([sys.executable, "-c", PROBE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=120)
        started, imported, path = out.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"probe imported sdpibounds from {path}, not from {SRC}")
        samples.append((float(imported) - spawned, float(started) - spawned,
                        float(imported) - float(started)))
    setup, interp, imp = (statistics.median(col) for col in zip(*samples))
    return {"setup_s": setup, "interpreter_s": interp, "import_s": imp, "samples": samples}


def environment() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


@dataclass
class OpRecord:
    label: str
    latency: float
    error: str
    verdict: object
    factor: float = 1.0

    @property
    def scaled(self) -> float:
        return self.latency * self.factor

    @property
    def failed(self) -> bool:
        return bool(self.error or self.verdict.problems)


def run_ops(wl, ops, W, tracer=None) -> list[OpRecord]:
    """Run ops back to back and return one record per op.

    Each answer is checked, and the calibration kernel sampled, right after
    its op; neither counts in the op's latency.
    """
    cal = Calibration()
    before = cal.after(0.0)
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except W.LIBRARY_ERRORS as exc:
            latency = time.perf_counter() - t0
            rec = OpRecord(op.label, latency, f"{type(exc).__name__}: {exc}", W.Verdict())
        else:
            latency = time.perf_counter() - t0
            rec = OpRecord(op.label, latency, "", wl.check(op, out))
        after = cal.after(latency)
        rec.factor = 2.0 * CAL_REF_S / (before + after)
        before = after
        records.append(rec)
    return records


def quantile(xs: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A beta-weighted mean of all order statistics: it estimates the same
    quantile as the sample quantile with a smaller variance on the few
    dozen ops a run of the slower workloads holds.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(xs)
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.sort(xs))


def tail_percentile(n: int) -> float:
    """Highest of TAIL_PERCENTILES with TAIL_BEYOND ops beyond it, else the last."""
    return next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_BEYOND),
                TAIL_PERCENTILES[-1])


def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def accuracy(records: list[OpRecord]) -> dict:
    """Figures that depend on the inputs only, never on timing."""
    sstars = [v for r in records for v in r.verdict.sstar_values]
    gaps = [r.verdict.oracle_gap for r in records if r.verdict.oracle_gap is not None]
    return {
        "error_rate": sum(r.failed for r in records) / len(records),
        "mean_sstar": mean(sstars),
        "oracle_gap_bits": max(gaps, default=0.0),
    }


def end_to_end(wl, ops, setup, W) -> tuple[dict, list[OpRecord], dict]:
    records = run_ops(wl, ops, W)
    lat = [r.scaled for r in records]
    n = len(records)
    pct = tail_percentile(n)
    metrics = {
        "ops_per_s": n / sum(lat),
        "op_p50_s": quantile(lat, 0.5),
        "op_tail_s": quantile(lat, pct / 100.0),
        "ok_rate": sum(not r.failed for r in records) / n,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, records, {"op_tail_percentile": pct}


def per_layer(wl, ops, setup, W, S) -> tuple[dict, list[OpRecord], object]:
    """Untraced pass, traced pass, then the stage-isolating s* re-runs.

    The re-runs are separate calls with ``multistart_count=0`` (grid only)
    and ``grid_max_alphabet=0`` (multistart only), timed apart from every
    op; they stand in for stage self times until the library traces itself.
    """
    from sdpibounds import sdpi
    from sdpibounds.sdpi import SdpiConfig

    plain = run_ops(wl, ops, W)
    tracer = S.Tracer()
    with tracer.patched():
        records = run_ops(wl, ops, W, tracer)

    n = len(ops)
    sst = tracer.named("sdpi.sstar")
    for s in sst:
        if s.result is not None:
            W.check_sdpi_result(records[s.op].verdict, s.result, s.args[0], s.args[1])

    def rerun(cfg):
        rerun_cal = Calibration()
        secs, evals = 0.0, []
        for s in sst:
            t0 = time.perf_counter()
            res = sdpi.sstar(s.args[0], s.args[1], cfg)
            dt = time.perf_counter() - t0
            secs += dt
            rerun_cal.after(dt)
            evals.append(res.evaluations)
        return (rerun_cal.factor * secs / n if sst else 0.0), mean(evals)

    grid_s, grid_evals = rerun(SdpiConfig(multistart_count=0))
    ms_s, ms_evals = rerun(SdpiConfig(grid_max_alphabet=0))

    selfs = tracer.self_times()

    def busy(spans, self_time=False):
        """Scaled seconds of each span, with the factor of its op."""
        return [(selfs[s.id] if self_time else s.duration) * records[s.op].factor for s in spans]

    ok_sst = [s.result for s in sst if s.result is not None]
    sst_time = sum(busy(sst))
    ba = tracer.named("rate_distortion.blahut_arimoto")
    ba_ok = [s for s in ba if s.result is not None]
    ba_iters = sum(s.result.iterations for s in ba_ok)
    at = tracer.named("rate_distortion.rd_at_distortion")
    at_ids = {s.id for s in at}
    fr = tracer.named("bounds.full_report")
    acc = accuracy(records)

    metrics = {
        "sdpi.sstar_calls": len(sst),
        "sdpi.sstar_s": sst_time / n,
        "sdpi.evals_per_call": mean(r.evaluations for r in ok_sst),
        "sdpi.evals_per_s": sum(r.evaluations for r in ok_sst) / sst_time if sst_time else 0.0,
        "sdpi.search_win_ratio": mean(r.argmax_q is not None for r in ok_sst),
        "sdpi.mean_sstar": acc["mean_sstar"],
        "sdpi.maximal_correlation_s": sum(busy(tracer.named("sdpi.maximal_correlation"))) / n,
        "sdpi.grid_only_s": grid_s,
        "sdpi.grid_only_evals": grid_evals,
        "sdpi.multistart_only_s": ms_s,
        "sdpi.multistart_only_evals": ms_evals,
        "rate_distortion.ba_calls": len(ba),
        "rate_distortion.ba_iterations": ba_iters,
        "rate_distortion.ba_failures": sum(bool(s.error) for s in ba),
        "rate_distortion.ba_s": sum(busy(ba)) / n,
        "rate_distortion.ba_iter_per_s": ba_iters / sum(busy(ba_ok)) if ba_ok else 0.0,
        "rate_distortion.calls_per_point":
            sum(s.parent in at_ids for s in ba) / len(at) if at else 0.0,
        "rate_distortion.at_distortion_s": mean(busy(at)),
        "rate_distortion.curve_s": mean(busy(tracer.named("rate_distortion.rd_curve"))),
        "rate_distortion.oracle_gap_bits": acc["oracle_gap_bits"],
        "bounds.full_report_s": mean(busy(fr)),
        "bounds.self_s": mean(busy(fr, self_time=True)),
        "gaussian.quantize_s": mean(busy(tracer.named("gaussian.quantized_gaussian_joint"))),
        "cli.interpreter_s": setup["interpreter_s"],
        "cli.import_s": setup["import_s"],
        "error_rate": acc["error_rate"],
        "trace.overhead_ratio": sum(r.scaled for r in plain) / sum(r.scaled for r in records),
    }
    return metrics, records, tracer


def run_all(names: list[str], args) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        *table, last = out.stdout.strip().splitlines()
        print(f"== {name}", *table, sep="\n")
        sys.stderr.write(out.stderr)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One load-generating thread: BLAS pools are capped unless the caller
    # chose a size.  numpy is first imported below this line.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sdpibounds" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: no sdpibounds sources under {SRC} or no {spec_path.name}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import spans as S
    import workloads as W

    if args.workload == "all":
        return run_all(list(W.WORKLOADS), args)
    if args.workload not in W.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup = probe_setup(SETUP_PROBES)

    wl = W.make(args.workload)
    run_ops(wl, wl.warmup(), W)
    ops = wl.block(args.seed, 0) if args.trace else W.inputs(wl, args.seed, args.seconds)

    tracer = None
    extra = {}
    if args.trace:
        metrics, records, tracer = per_layer(wl, ops, setup, W, S)
        wanted = spec["per_layer"]
    else:
        metrics, records, extra = end_to_end(wl, ops, setup, W)
        wanted = spec["end_to_end"]

    failed = sum(r.failed for r in records)
    problems = [p for r in records for p in r.verdict.problems]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "inputs_sha256": W.inputs_digest(ops), "accuracy": accuracy(records),
        "setup": setup, **extra, "metrics": metrics, "problems": problems,
        "ops": [{"label": r.label, "latency_s": r.latency, "factor": r.factor,
                 "error": r.error, "problems": r.verdict.problems} for r in records],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:34s} {value:>14.6g} {m['unit']:10s} ({m['better']} is better)")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(records), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
