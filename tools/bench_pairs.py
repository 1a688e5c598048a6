"""Paired parent/change runs of the host-time benchmark, with a verdict.

Runs the unmodified ``perfbench/run.py --trace 0`` of two checkouts in
alternating order (pair ``i`` runs the parent first when ``i`` is even,
the change first when it is odd), then prints, for every end-to-end
metric ``BENCHMARK.json`` declares, each side's median and quartiles,
how many pairs the change won, and the verdict:

* ``gain``: at least ten pairs, the change won at least nine tenths of
  them (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's interquartile range is wider than the
  bound, so "no worse" cannot be told apart from noise (unless every
  change run beats every parent run);
* ``within bound`` otherwise;
* ``invalid``, in place of any of the above but ``worse``: more
  operations failed in the change's runs than in the parent's (a run
  that crashed counts as one failed operation), or some run lacks the
  metric, so the runs cannot be paired.

Next to ``peak_rss_mb`` it prints each side's median iteration count
(parent / change): perfbench's timeline grows with every iteration, so
a faster program that runs more iterations in the same seconds peaks
higher without costing more memory per iteration.

Usage, from the root of either checkout::

    python3 tools/bench_pairs.py PARENT CHANGE --workload fleet-16 \\
        --pairs 10 --seed 0

Each run writes its own record under its checkout's ``.perfbench/``;
the pairs and verdicts go to ``.perfbench/pairs/`` of the checkout this
script lives in.  Exit code 1 if any run failed or reported failed ops.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: fewest pairs a gain may rest on, and the share of them it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    pairs: int
    wins: int
    parent: tuple[float, float, float]  # (q1, median, q3)
    change: tuple[float, float, float]
    #: relative change of the median, positive = worse
    worse_by: float
    label: str


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float,
    failed: tuple[int, int] = (0, 0),
) -> Verdict:
    """Judge paired runs: ``parent[i]`` and ``change[i]`` ran as pair
    ``i``.  ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the
    relative worsening the benchmark allows; ``failed`` is the number
    of failed operations on the (parent, change) side."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number (> 0) of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq, cq = _quartiles(parent), _quartiles(change)
    gap = sign * (pq[1] - cq[1])  # > 0: the change's median is better
    worse_by = -gap / abs(pq[1]) if pq[1] else 0.0
    separated = (
        max(change) < min(parent) if better == "lower"
        else min(change) > max(parent)
    )
    if (
        len(parent) >= MIN_PAIRS
        and wins >= math.ceil(WIN_SHARE * len(parent))
        and gap > pq[2] - pq[0]
    ):
        label = "gain"
    elif worse_by > bound:
        label = "worse"
    elif pq[1] and (pq[2] - pq[0]) / abs(pq[1]) > bound and not separated:
        label = "unresolved"
    else:
        label = "within bound"
    if failed[1] > failed[0] and label != "worse":
        label = "invalid"
    return Verdict(len(parent), wins, pq, cq, worse_by, label)


def _fmt(quartiles: tuple[float, float, float]) -> str:
    return "(" + ", ".join(f"{x:.4g}" for x in quartiles) + ")"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``; its result object,
    with ``iterations`` added from the run record's ``walls_s`` (the
    line above the result) when the run printed one."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        return {"correct": False, "error": done.stderr.strip()[-500:]}
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if len(lines) >= 2:
        record = json.loads(lines[-2]).get("record", {})
        if "walls_s" in record:
            result["iterations"] = len(record["walls_s"])
    return result


def _median_iterations(side_runs: list[dict]) -> str:
    """Median iteration count of one side's runs, ``-`` if none
    reported it."""
    counts = [r["iterations"] for r in side_runs if "iterations" in r]
    return f"{statistics.median(counts):g}" if counts else "-"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, seconds)
            runs[side].append(result)
            wall = result.get("metrics", {}).get("wall_s", {}).get("value")
            print(f"pair {i + 1}/{args.pairs} {side}: wall_s={wall} "
                  f"correct={result.get('correct')}", flush=True)

    failed = {
        side: sum(r.get("failed", 1 if "error" in r else 0) for r in side_runs)
        for side, side_runs in runs.items()
    }
    bad_runs = sum(
        not r.get("correct") or r.get("failed", 0) > 0
        for side in runs.values() for r in side
    )
    verdicts = {}
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"{seconds:g} s runs; (q1, median, q3)")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {
            side: [r["metrics"][name]["value"] for r in side_runs
                   if name in r.get("metrics", {})]
            for side, side_runs in runs.items()
        }
        if len(values["parent"]) != args.pairs or (
            len(values["change"]) != args.pairs
        ):
            verdicts[name] = {"label": "invalid", "runs": {
                side: len(v) for side, v in values.items()}}
            print(f"  {name:<12} invalid: parent {len(values['parent'])}, "
                  f"change {len(values['change'])} of {args.pairs} runs "
                  f"report it")
            continue
        v = verdict(values["parent"], values["change"], metric["better"],
                    metric["bound"], (failed["parent"], failed["change"]))
        verdicts[name] = asdict(v)
        suffix = ""
        if name == "peak_rss_mb":
            suffix = (f"  iterations {_median_iterations(runs['parent'])}"
                      f" / {_median_iterations(runs['change'])}")
        print(f"  {name:<12} parent {_fmt(v.parent)}  change {_fmt(v.change)}"
              f"  wins {v.wins}/{v.pairs}  {v.worse_by:+.1%}  {v.label}"
              f"{suffix}")
    print(f"  failed ops: parent {failed['parent']}, "
          f"change {failed['change']}")
    if bad_runs:
        print(f"  {bad_runs} run(s) failed or reported failed ops")
    out = ROOT / ".perfbench" / "pairs"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "sides": {k: str(v) for k, v in sides.items()},
        "failed": failed, "runs": runs, "verdicts": verdicts,
    }, indent=1) + "\n")
    return 1 if bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
