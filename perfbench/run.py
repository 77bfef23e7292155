"""goodsign benchmark: one workload per process, closed loop, oracle-checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload {search,verify,cli} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all     # each workload in its own process

One client calls the package in-process, sequentially; no op starts before
the previous one returned. The loop repeats whole rounds of its workload, as
many as take about ``--seconds`` at the reference speed (see ``Gauge``).
Every op's outputs are checked against an independent numpy/LAPACK oracle;
a disagreement or an exception counts as a failed op.

``--trace 0`` reports the end-to-end metrics. The gated op-time metrics
(``ref_*``) and ``setup_s`` are times at the gauge's reference speed; the raw
``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms`` are printed beside them.
``--trace 1`` alternates untraced and traced rounds, reports the per-layer
self-time shares and the tracing overhead, and times each module on fixed
inputs (see probes.py). The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable table, the environment, and a ``# record`` line that
compare.py reads.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
START = perf_counter()
SETUP_REPEATS = 15
MIN_ROUNDS = 3
MIN_OPS = 20  # so that ten op times lie beyond the tail percentile
TRACED_RUN_LIMIT_S = 160.0  # the tier-1 subprocess gets what is left of this
MODULES = ("conference", "graphs", "constructions", "partition", "spectra", "search", "fileio", "refdata", "reproduce", "cli")


def fresh_import():
    """Import goodsign and all its modules anew, so set-up pays the import."""
    for name in [m for m in sys.modules if m == "goodsign" or m.startswith("goodsign.")]:
        del sys.modules[name]
    package = importlib.import_module("goodsign")
    for module in MODULES:
        importlib.import_module(f"goodsign.{module}")
    return package


def environment(gs) -> dict:
    kernel = getattr(gs.spectra, "_jacobi_sweeps", None)
    if kernel is None:
        backend = "absent"
    else:
        backend = "numba" if type(kernel).__module__.startswith("numba") else "python"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "eigen_backend": backend,
        "goodsign": gs.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
    }


# -- the closed loop -------------------------------------------------------------


def run_op(op) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    if error is None:
        try:
            error = op.check(out)
        except Exception as exc:  # a check that cannot read the output fails the op
            error = f"check raised {type(exc).__name__}: {exc}"
    numeric = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return {"name": op.name, "t0": t0, "s": elapsed, "warnings": numeric, "classes": op.classes, "error": error, "out": out}


class Gauge:
    """A fixed pure-Python loop over numpy scalars, run between ops.

    The machine this was written on, a 2-CPU VM on a shared host, switches
    between a fast and a slow state (about 1.6x apart) every few seconds, and
    spends minutes mostly in one or the other. Op times follow it, and so
    does this loop, which does what the package's Jacobi kernel does
    (indexing, multiplying and storing numpy float64 scalars). After each op
    the gauge runs until it has taken ``SHARE`` of the op time so far, so its
    samples sit between the ops. An op's time at the reference speed is its
    time times ``REFERENCE_S`` over the median of the ``NEAR`` gauge samples
    on each side of the op. Over ten runs per workload, their throughput and
    percentiles spread by 0.03 to 0.10 (IQR over median) where raw times
    spread by 0.06 to 0.34. The gauge does not call goodsign, so a change to
    the package moves op times and not the gauge.
    """

    SHARE = 0.1
    NEAR = 5
    REFERENCE_S = 1.5e-3  # mean sample time on that VM when the runs were tuned
    _M = (np.arange(144, dtype=np.float64).reshape(12, 12) % 7) / 3.0

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.total_s = 0.0
        self.op_s = 0.0

    def sample(self) -> float:
        a = self._M.copy()
        acc = 0.0
        t0 = perf_counter()
        for _ in range(12):
            for i in range(12):
                for j in range(12):
                    x = a[i, j]
                    y = a[j, i]
                    acc += x * y
                    a[i, j] = y * 0.5 + 1.0
        elapsed = perf_counter() - t0
        self.starts.append(t0)
        self.times.append(elapsed)
        self.total_s += elapsed
        return acc

    def after_op(self, seconds: float) -> None:
        self.op_s += seconds
        while self.total_s < self.SHARE * self.op_s:
            self.sample()

    @property
    def scale(self) -> float:
        """Reference over measured speed, over the whole run."""
        return self.REFERENCE_S * len(self.times) / self.total_s

    def local_scale(self, t0: float, t1: float) -> float:
        """Reference over measured speed, from the samples around ``[t0, t1]``.

        The median of the ``NEAR`` samples before ``t0`` and the ``NEAR``
        after ``t1``: a sample that an interrupt or a preemption hit reads
        several times too long.
        """
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        near = self.times[max(0, i - self.NEAR):i] + self.times[j:j + self.NEAR]
        if not near:
            return self.scale
        return self.REFERENCE_S / statistics.median(near)

    def rescale(self, records: list[dict]) -> None:
        """Give every record its time at the reference speed, ``ref_s``."""
        for r in records:
            r["ref_s"] = r["s"] * self.local_scale(r["t0"], r["t0"] + r["s"])


def run_round(workload, records: list[dict], gauge: Gauge, on_op=None) -> None:
    """Run every op of the workload once, with the gauge between ops."""
    for index, op in enumerate(workload.ops):
        if on_op is not None:
            on_op(len(records))
        record = run_op(op)
        record.pop("out")
        record["index"] = index
        records.append(record)
        gauge.after_op(record["s"])


def rounds_for(workload, seconds: float) -> int:
    """Rounds that take about ``seconds`` at the reference speed.

    The count depends only on ``seconds``, never on how fast the code under
    test runs, so two commits are measured over the same ops. It is at least
    ``MIN_ROUNDS`` and leaves ten op times beyond the tail percentile.
    """
    fewest = max(MIN_ROUNDS, math.ceil(MIN_OPS / len(workload.ops)))
    return max(fewest, round(seconds / (workload.round_s * (1 + Gauge.SHARE))))


def loop(workload, rounds: int, gauge: Gauge) -> list[dict]:
    records: list[dict] = []
    for _ in range(rounds):
        run_round(workload, records, gauge)
    gauge.rescale(records)
    return records


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    return math.floor(100 * (1 - 10 / n))


def summarize(records: list[dict]) -> dict:
    """Op-time statistics, raw and at the reference speed (``ref_*``).

    Throughput is ops over summed op time, so the oracle checks and the gauge
    are excluded. The tail is the highest whole percentile with at least ten
    op times beyond it.
    """
    n = len(records)
    tail = tail_percentile(n)
    stats = {
        "ops": n,
        "tail_pct": tail,
        "failed": sum(r["error"] is not None for r in records),
        "warnings": sum(r["warnings"] for r in records),
        "classes": sum(r["classes"] for r in records),
    }
    for prefix, key in (("", "s"), ("ref_", "ref_s")):
        times = np.array([r[key] for r in records])
        stats[f"{prefix}op_seconds"] = float(times.sum())
        stats[f"{prefix}ops_per_s"] = n / times.sum()
        stats[f"{prefix}op_p50_ms"] = float(np.percentile(times, 50)) * 1e3
        stats[f"{prefix}op_tail_ms"] = float(np.percentile(times, tail)) * 1e3
        stats[f"{prefix}beyond_tail"] = int((times > np.percentile(times, tail)).sum())
    return stats


# -- one workload in this process ------------------------------------------------


def set_up(name: str, seed: int):
    """Import, inputs, oracle and one warm-up op, repeated with the gauge between.

    Returns each set-up's time, raw and at the reference speed.
    """
    from workloads import WORKLOADS

    gauge = Gauge()
    spans, workload, gs, warm_errors = [], None, None, []
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        t0 = perf_counter()
        gs = fresh_import()
        workload = WORKLOADS[name](gs, seed, SCRATCH)
        warm = run_op(workload.warmup())
        spans.append((t0, perf_counter() - t0))
        gauge.after_op(spans[-1][1])
        if warm["error"]:
            warm_errors.append(warm["error"])
    raw = [s for _, s in spans]
    ref = [s * gauge.local_scale(t0, t0 + s) for t0, s in spans]
    return gs, workload, raw, ref, warm_errors


def run_workload(args) -> int:
    if not (ROOT / "src" / "goodsign" / "__init__.py").is_file():
        print(f"error: no goodsign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    SCRATCH.mkdir(exist_ok=True)
    gs, workload, setup_times, setup_ref, warm_errors = set_up(args.workload, args.seed)
    env = environment(gs)
    try:
        if args.trace:
            result = traced_run(gs, workload, args)
        else:
            gauge = Gauge()
            rounds = rounds_for(workload, args.seconds)
            result = {"records": loop(workload, rounds, gauge), "rounds": rounds, "gauge": gauge}
    finally:
        workload.close()

    records, gauge = result["records"], result["gauge"]
    s = summarize(records)
    errors = warm_errors + [f"{r['name']}: {r['error']}" for r in records if r["error"]] + result.get("probe_failures", [])
    attempted = len(records) + result.get("probe_checks", 0)
    failed = s["failed"] + len(result.get("probe_failures", [])) + len(warm_errors)
    end_to_end = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "ref_ops_per_s": (s["ref_ops_per_s"], "1/s"),
        "ref_op_p50_ms": (s["ref_op_p50_ms"], "ms"),
        "ref_op_tail_ms": (s["ref_op_tail_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    reported = dict(end_to_end)
    reported["gauge_scale"] = (gauge.scale, "ratio")
    reported["raw_setup_s"] = (statistics.median(setup_times), "s")
    reported["ops_per_s"] = (s["ops_per_s"], "1/s")
    reported["op_p50_ms"] = (s["op_p50_ms"], "ms")
    reported["op_tail_ms"] = (s["op_tail_ms"], "ms")
    reported["failed_op_ratio"] = (s["failed"] / s["ops"], "ratio")
    reported["warnings_per_op"] = (s["warnings"] / s["ops"], "count")
    if args.workload == "search":
        reported["classes_per_s"] = (s["classes"] / s["op_seconds"], "1/s")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {result['rounds']}  ops {s['ops']}")
    print(f"op_tail_ms is p{s['tail_pct']} of {s['ops']} op times ({s['beyond_tail']} beyond it); "
          f"ref_* and setup_s are times at the gauge's reference speed; raw ones beside them")
    for name, (value, unit) in reported.items():
        print(f"  {name:<18} {value:14.6g} {unit}")
    by_op: dict[str, list[float]] = {}
    for r in records:
        by_op.setdefault(r["name"], []).append(r["s"])
    breakdown = sorted(((statistics.median(v) * 1e3, min(v) * 1e3, len(v), k) for k, v in by_op.items()), reverse=True)
    print("  median / best ms by op (count):")
    for median, best, count, op_name in breakdown[:16]:
        print(f"    {median:10.3f} {best:10.3f}  ({count})  {op_name}")
    for line in errors[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    metrics = result["per_layer"] if args.trace else end_to_end
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:14.6g} {unit}")
        for key in ("tier1_summary", "tier1_wall_s", "tier1_slowest", "cli_stdout_sha256"):
            if key in result["notes"]:
                print(f"  {key}: {result['notes'][key]}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "tail_percentile": s["tail_pct"],
        "ops": s["ops"],
        "rounds": result["rounds"],
        "setup_s_samples": setup_ref,
        "raw_setup_s_samples": setup_times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**reported, **metrics}.items()},
        "errors": errors[:20],
        **result.get("notes", {}),
    }
    print("# env " + json.dumps(env, sort_keys=True))
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(gs, workload, args) -> dict:
    """Untraced and traced rounds in turn, then the module probes.

    The two kinds of round alternate so that both meet the same machine, and
    each has its own gauge; the tracing overhead is the difference of their
    summed op times at the reference speed. The end-to-end figures of a
    traced run come from its untraced rounds only.
    """
    from probes import Probes
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    untraced: list[dict] = []
    traced: list[dict] = []
    plain_gauge, traced_gauge = Gauge(), Gauge()
    rounds = rounds_for(workload, args.seconds / 3)
    for _ in range(rounds):
        run_round(workload, untraced, plain_gauge)
        tracer.install(gs)
        try:
            run_round(workload, traced, traced_gauge, on_op=lambda i: setattr(tracer, "op", i))
        finally:
            tracer.uninstall()
    tracer.write(SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl")

    per_layer: dict[str, tuple[float, str]] = {}
    layer_self, layer_calls, functions = tracer.self_times()
    op_time = sum(r["s"] for r in traced)
    for layer in LAYERS:
        per_layer[f"share.{layer}"] = (layer_self.get(layer, 0.0) / op_time, "ratio")
    per_layer["share.bench"] = (1 - sum(layer_self.values()) / op_time, "ratio")
    for layer in LAYERS:
        per_layer[f"calls_per_op.{layer}"] = (layer_calls.get(layer, 0) / len(traced), "count")
    plain_gauge.rescale(untraced)
    traced_gauge.rescale(traced)
    with_tracing = summarize(traced)["ref_op_seconds"]
    without = summarize(untraced)["ref_op_seconds"]
    per_layer["trace.overhead_ms_per_op"] = ((with_tracing - without) / len(traced) * 1e3, "ms")
    per_layer["trace.overhead_share"] = ((with_tracing - without) / without, "ratio")
    per_layer["warnings_per_op"] = (sum(r["warnings"] for r in untraced + traced) / len(untraced + traced), "count")

    probes = Probes(gs, SCRATCH, tier1_deadline=START + TRACED_RUN_LIMIT_S)
    probes.run_all()
    if args.workload == "cli":
        probes.tier1()
    per_layer.update(probes.metrics)

    notes = dict(probes.notes)
    top = sorted(functions.items(), key=lambda kv: -kv[1][0])[:15]
    notes["top_self_time"] = [
        {"function": f, "self_ms": own * 1e3, "total_ms": total * 1e3, "calls": calls} for f, (own, total, calls) in top
    ]
    if args.workload == "cli":
        notes["cli_stdout_sha256"] = cli_stdout_digest(workload)
    return {
        "records": untraced,
        "gauge": plain_gauge,
        "rounds": rounds,
        "per_layer": per_layer,
        "probe_failures": probes.failures,
        "probe_checks": probes.checks,
        "notes": notes,
    }


def cli_stdout_digest(workload) -> str:
    """sha256 of the default stdout of one cli round, so byte changes show."""
    import hashlib

    digest = hashlib.sha256()
    for op in workload.ops:
        _, stdout, _ = run_op(op)["out"]
        digest.update(stdout.encode())
    return digest.hexdigest()


# -- all workloads, one process each ----------------------------------------------


def run_all(args) -> int:
    script = Path(__file__).resolve()
    results = {}
    for name in ("search", "verify", "cli"):
        argv = [sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "verify", "cli", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
