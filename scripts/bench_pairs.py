"""Compare two source trees on one framebench workload, in alternated pairs.

Pair i runs ``framebench/run.py --workload W --seed SEED_BASE+i --seconds S
--trace 0`` from the base tree and from the change tree, one after the
other; which side runs first alternates from pair to pair. Each run's
end-to-end metrics are printed as it finishes. The summary gives, per
metric, each side's median and quartiles, the change's relative move and
the pairs it won (strictly better, per BENCHMARK.json's ``better``; ties
count for neither). ``gain`` is yes when the change won at least nine
tenths of the pairs and its median is better than the base's by more
than the distance between the base's quartiles: the rule a claimed gain
must meet. ``held`` is the no-regression verdict against the metric's bound in
BENCHMARK.json (see ``held``). Run from anywhere, with the package installed
(``pip install -e .``):

    python3 scripts/bench_pairs.py BASE_TREE CHANGE_TREE --workload simulate_mask \\
        --pairs 10 --seconds 24 --seed-base 700
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from evprune.errors import integer, real


def run_bench(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One framebench run from ``tree``: its end-to-end metric values by name."""
    cmd = [sys.executable, str(tree / "framebench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in summary["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def held(base: list[float], change: list[float], better: str, bound: float) -> str:
    """Whether the change held a metric, ``better`` "higher" or "lower", within
    its relative ``bound``: "worse" when the change's median is worse than the
    base's by more than bound x |base median|; "unresolved" when the change's
    interquartile spread is wider than that, unless every change run beats
    every base run; "ok" otherwise."""
    sign = 1 if better == "higher" else -1
    b_med, c_med = statistics.median(base), statistics.median(change)
    limit = bound * abs(b_med)
    if sign * (b_med - c_med) > limit:
        return "worse"
    c1, c3 = quartiles(change)
    if c3 - c1 > limit and min(sign * c for c in change) <= max(sign * b for b in base):
        return "unresolved"
    return "ok"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=integer, default=10)
    ap.add_argument("--seconds", type=real, default=24.0)
    ap.add_argument("--seed-base", type=integer, default=0)
    ap.add_argument("--smoke", action="store_true", help="framebench's tiny smoke runs")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("need --pairs >= 1")
    spec = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["end_to_end"]

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            metrics = run_bench(sides[side], args.workload, seed, args.seconds, args.smoke)
            runs[side].append(metrics)
            values = " ".join(f"{m['name']}={metrics[m['name']]:.6g}" for m in declared)
            print(f"pair {i} seed {seed} {side}: {values}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, {args.seconds:g} s runs")
    print(f"{'metric':<14} {'unit':<6} {'base median [q1, q3]':<28} "
          f"{'change median [q1, q3]':<28} {'move':>8} {'wins':>6}  gain  held")
    for m in declared:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        b_med, c_med = statistics.median(base), statistics.median(change)
        (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
        move = (c_med - b_med) / b_med if b_med else float("nan")
        gain = wins >= 0.9 * args.pairs and sign * (c_med - b_med) > b3 - b1
        print(f"{name:<14} {m['unit']:<6} {f'{b_med:.4g} [{b1:.4g}, {b3:.4g}]':<28} "
              f"{f'{c_med:.4g} [{c1:.4g}, {c3:.4g}]':<28} {move:>+8.1%} "
              f"{f'{wins}/{args.pairs}':>6}  {'yes' if gain else 'no':<4}  "
              f"{held(base, change, m['better'], m['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
