"""Alternating parent/change pairs of one ``benchmarks/perf`` workload.

``python benchmarks/pairs.py --parent REV --workload W [--pairs 10]``
checks ``REV`` out into a ``git worktree`` under ``.bench_work/``, runs
``benchmarks/perf/run.py`` on that tree and on this one in turn
(alternating which side goes first, both sides of a pair on the same
seed, never two runs at once) and prints, per metric, both medians,
both quartile pairs, wins / pairs and a verdict under the rule of the
``choosing-metrics`` guide:

- **gain** -- out of ten pairs or more, the change wins at least nine
  tenths (ties count for neither side) and the medians differ by more
  than the distance between the parent's own quartiles; fewer pairs
  never earn the word, whatever the numbers;
- **REGRESSION** -- the change's median is worse than the parent's by
  more than the bound ``BENCHMARK.json`` fixes for the metric;
- **unresolved** -- the parent's quartile spread is wider than that
  bound, and not every run of the change beats every run of the parent;
- **within bound** otherwise (per-layer metrics have no bound: ``-``).

Each tree runs its own copy of the harness for the run length
``BENCHMARK.json`` fixes; a change that edits ``benchmarks/perf`` cannot
be paired.  Before the first pair both trees are byte-compiled
(:func:`compile_tree`, with ``PYTHONDONTWRITEBYTECODE`` unset for that
call): a tree without ``.pyc`` files compiles every module it imports
on each run, which reads as a slower ``setup_s`` on that side alone.
The bound and spread arithmetic is the harness's own
(``benchmarks.perf.stats``).  Exit status 1 on a regression or when the
change fails a larger share of operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from benchmarks.perf.stats import (  # noqa: E402
    median, quartile_spread, worsening,
)

#: Pairs the gain rule is defined for (choosing-metrics guide).
MIN_PAIRS_FOR_GAIN = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def compile_tree(tree: str) -> None:
    """Write the ``.pyc`` files of ``tree``'s ``src`` and ``benchmarks``,
    so neither side of a pair pays the compiler in its runs."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "benchmarks"],
        cwd=tree, check=True, env=env, stdout=subprocess.DEVNULL,
    )


def run_once(tree: str, args: argparse.Namespace) -> dict[str, Any]:
    """One ``run.py`` process in ``tree``; its result line, parsed."""
    out = subprocess.run(
        [
            sys.executable, os.path.join(tree, "benchmarks", "perf", "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace),
        ],
        cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, for the table only."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(
    better: str, bound: float | None,
    parent: list[float], change: list[float],
) -> tuple[int, str]:
    """``(pairs the change won, verdict)`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    # Both relative to the parent's median, positive = worse.
    worse = worsening(better, median(parent), median(change))
    spread = quartile_spread(parent)
    if (
        len(parent) >= MIN_PAIRS_FOR_GAIN
        and wins >= 0.9 * len(parent)
        and -worse > spread
    ):
        return wins, "gain"
    if bound is None:
        return wins, "-"
    if worse > bound:
        return wins, "REGRESSION"
    clear = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not clear:
        return wins, "unresolved"
    return wins, "within bound"


def report(
    spec: dict[str, Any], parent: list[dict], change: list[dict]
) -> bool:
    """Print the table; True when nothing regressed."""
    declared = {
        m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]
    }
    ok = True
    print(
        f"{'metric':38s} {'parent med [q1, q3]':>34s} "
        f"{'change med [q1, q3]':>34s}  wins  verdict"
    )
    for name in parent[0]["metrics"]:
        meta = declared[name]
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        wins, word = verdict(meta["better"], meta.get("bound"), p, c)
        ok = ok and word != "REGRESSION"
        cells = [
            "{:.4g} [{:.4g}, {:.4g}]".format(median(side), *quartiles(side))
            for side in (p, c)
        ]
        print(
            f"{name:38s} {cells[0]:>34s} {cells[1]:>34s} "
            f"{wins:2d}/{len(p):<2d}  {word}"
        )
    shares = [
        sum(run["failed"] for run in runs)
        / max(1, sum(run["attempted"] for run in runs))
        for runs in (parent, change)
    ]
    print(f"failed share: parent {shares[0]:.4f}, change {shares[1]:.4f}")
    # Every run made, for the write-up.
    print("runs:", json.dumps({"parent": parent, "change": change}))
    return ok and shares[1] <= shares[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/pairs.py")
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rev = git("rev-parse", "--short", args.parent)
    tree = os.path.join(ROOT, ".bench_work", f"pairs-parent-{rev}")
    if os.path.exists(tree):        # left by an interrupted run
        git("worktree", "remove", "--force", tree)
    git("worktree", "add", "--detach", tree, rev)
    results: dict[str, list[dict]] = {tree: [], ROOT: []}
    try:
        for side in results:
            compile_tree(side)
        for index in range(args.pairs):
            order = (tree, ROOT) if index % 2 == 0 else (ROOT, tree)
            for side in order:
                results[side].append(run_once(side, args))
            print(f"pair {index + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        git("worktree", "remove", "--force", tree)
    print(
        f"{args.workload}: parent {rev} vs working tree, {args.pairs} "
        f"pairs, seed {args.seed}, trace {args.trace}"
    )
    if args.pairs < MIN_PAIRS_FOR_GAIN:
        print(
            f"fewer than {MIN_PAIRS_FOR_GAIN} pairs: numbers only, no gain "
            "verdict"
        )
    return 0 if report(spec, results[tree], results[ROOT]) else 1


if __name__ == "__main__":
    sys.exit(main())
