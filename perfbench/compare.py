"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the stdout of one or more ``run.py`` runs; the ``# record``
lines are read and grouped by workload and trace flag, since a traced run's
op times include the tracer and its memory the probes. For every metric the medians of the
two sides are printed with their relative change, and end-to-end metrics are
held to the bounds in BENCHMARK.json. Results from different eigen backends
are refused (exit 2): the numba/pure-Python gap dwarfs any change under test.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def records(path: str) -> list[dict]:
    prefix = "# record "
    return [json.loads(line[len(prefix):]) for line in Path(path).read_text().splitlines() if line.startswith(prefix)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = records(argv[0]), records(argv[1])
    if not base or not new:
        print("error: no '# record' lines in one of the inputs", file=sys.stderr)
        return 2
    backends = {r["env"]["eigen_backend"] for r in base + new}
    if len(backends) > 1:
        print(f"error: refusing to compare results from different eigen backends: {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[tuple[str, int, str], tuple[list, list]] = defaultdict(lambda: ([], []))
    for side, rows in ((0, base), (1, new)):
        for r in rows:
            for name, m in r["metrics"].items():
                values[(r["workload"], r["trace"], name)][side].append(m["value"])

    regressions = 0
    print(f"{'workload':<8} {'trace':>5} {'metric':<40} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for (workload, trace, name), (b, n) in sorted(values.items()):
        if not b or not n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / abs(mb) if mb else float("nan")
        verdict = ""
        if name in gated and not trace:
            worse = change if gated[name]["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > gated[name]["bound"] else "ok"
            regressions += verdict == "REGRESSION"
        elif name in better:
            verdict = f"({better[name]} is better)"
        print(f"{workload:<8} {trace:>5} {name:<40} {mb:12.6g} {mn:12.6g} {change:+8.1%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
