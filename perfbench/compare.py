"""Compare the end-to-end metrics of two sets of benchmark runs.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result records (``*-trace0-*.json``) written by
perfbench/run.py under .perfbench/results/, for example one directory per
commit.  For every workload and BENCHMARK.json end-to-end metric this prints
each side's median and quartiles, the change of the median as a share of the
base median, how many seeds run on both sides the change won, and a verdict:

* ``worse``: the change's median is worse than the base's by more than the
  metric's bound;
* ``unresolved``: not worse by the bound, but the base's own quartile spread
  is wider than the bound and the change did not win every shared seed;
* ``ok``: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """workload -> metric -> {seed: value} over full-size untraced runs."""
    out: dict = {}
    for path in sorted(directory.glob("*-trace0-*.json")):
        record = json.loads(path.read_text())
        if record["smoke"]:
            continue
        for name, metric in record["metrics"].items():
            out.setdefault(record["workload"], {}).setdefault(name, {})[record["seed"]] = metric["value"]
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: dict, change: dict, spec: dict) -> list[str]:
    lines = [f"{'workload':<22} {'metric':<12} {'base median [q1,q3]':>30} "
             f"{'change median [q1,q3]':>30} {'delta':>8} {'wins':>6}  verdict"]
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            b, c = base[workload].get(name, {}), change[workload].get(name, {})
            if not b or not c:
                continue
            bq, cq = _quartiles(list(b.values())), _quartiles(list(c.values()))
            delta = (cq[1] - bq[1]) / bq[1]
            shared = sorted(set(b) & set(c))
            wins = sum(1 for s in shared if sign * (c[s] - b[s]) < 0)
            if sign * delta > bound:
                verdict = "worse"
            elif (bq[2] - bq[0]) / bq[1] > bound and wins < len(shared):
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(
                f"{workload:<22} {name:<12} {bq[1]:>12.5g} [{bq[0]:.5g},{bq[2]:.5g}] "
                f"{cq[1]:>12.5g} [{cq[0]:.5g},{cq[2]:.5g}] {delta:>+8.1%} "
                f"{wins:>2}/{len(shared):<3}  {verdict}"
            )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(load(Path(argv[0])), load(Path(argv[1])), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
