"""Compare two sets of benchmark results.

    python3 bench/compare.py BEFORE_DIR AFTER_DIR

Each directory is a ``--results-dir`` of ``bench/run.py`` (one
subdirectory per workload).  For every workload and every end-to-end
metric of ``BENCHMARK.json`` it prints each set's median and quartiles
(``statistics.quantiles(n=4)``), the spread (quartile distance over the
median), the change of the median, and ``WORSE`` when the second median
is worse than the first by more than the metric's bound.  It also
prints each set's share of failed operations.  Exit code 1 when any
metric is worse than its bound, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(results_dir: Path) -> dict:
    """{workload: [result, ...]} of the untraced runs in a results directory."""
    out: dict = {}
    for f in sorted(results_dir.glob("*/*.json")):
        if f.name.endswith(".spans.json"):
            continue
        rec = json.loads(f.read_text())
        if rec.get("trace") == 0:
            out.setdefault(rec["workload"], []).append(rec["result"])
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before, after = (load(Path(a)) for a in argv)
    worse = False
    print(f"{'workload':14} {'metric':12} {'before median [q1, q3]':>34} "
          f"{'after median [q1, q3]':>34} {'change':>8} {'bound':>6}")
    for wl in sorted(set(before) | set(after)):
        a_runs, b_runs = before.get(wl, []), after.get(wl, [])
        if not a_runs or not b_runs:
            print(f"{wl:14} missing in one set ({len(a_runs)} vs {len(b_runs)} runs)")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            a = quartiles([r["metrics"][name]["value"] for r in a_runs])
            b = quartiles([r["metrics"][name]["value"] for r in b_runs])
            change = (b[1] - a[1]) / a[1]
            loss = change if m["better"] == "lower" else -change
            flag = "WORSE" if loss > m["bound"] else ""
            worse |= bool(flag)
            print(f"{wl:14} {name:12} "
                  f"{a[1]:12.5g} [{a[0]:9.5g}, {a[2]:9.5g}] "
                  f"{b[1]:12.5g} [{b[0]:9.5g}, {b[2]:9.5g}] "
                  f"{change:+8.2%} {m['bound']:6.2f} {flag}")
            print(f"{'':14} {'':12} spread {(a[2] - a[0]) / a[1]:8.2%} "
                  f"{'':19} spread {(b[2] - b[0]) / b[1]:8.2%}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (a_runs, b_runs)]
        correct = [all(r["correct"] for r in runs) for runs in (a_runs, b_runs)]
        print(f"{wl:14} failed share {shares[0]:.6f} vs {shares[1]:.6f}; "
              f"runs {len(a_runs)} vs {len(b_runs)}; all correct {correct[0]} vs {correct[1]}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
