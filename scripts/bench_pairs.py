#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare
their end-to-end metrics.

Pair k runs ``python3 benchmark/run.py --workload W --seed K+k
--seconds S --trace 0`` in TREE_A and in TREE_B. S is ``run_seconds``
of ``BENCHMARK.json``. TREE_A runs first in even pairs and TREE_B in
odd ones, so both sides of a pair meet the same inputs and, as nearly
as two runs can, the same host load.
TREE_A is the parent, TREE_B the change.
Prints one line per pair with each side's metrics, correctness and
failed operations, then per end-to-end metric of ``BENCHMARK.json``:
each side's median and first and third quartiles (linear
interpolation between the order statistics, numpy's default), how many
pairs the change won (strictly better, in the metric's direction), and
whether the claimed-gain rule holds: there are at least ten pairs, the
change wins at least nine in ten of them, and its median beats the
parent's by more than the parent's interquartile range.

Usage: python scripts/bench_pairs.py TREE_A TREE_B --workload W
       [--pairs 10] [--seed-base 1000]

Exit code 0 when every run reported ``correct: true``, else 1.
"""

import argparse
import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear
    interpolation between the sorted values."""
    data = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(data) - 1)
        low = math.floor(pos)
        high = min(low + 1, len(data) - 1)
        return data[low] + (data[high] - data[low]) * (pos - low)

    return at(0.25), at(0.5), at(0.75)


def compare(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """The statistics of one metric over pairs ``(parent[k], change[k])``:
    both sides' quartiles, the change's wins, and whether the
    claimed-gain rule holds; it never holds on fewer than ten pairs."""
    sign = 1.0 if better == "lower" else -1.0
    q_parent, q_change = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change, strict=True))
    gap = sign * (q_parent[1] - q_change[1])
    return {
        "parent": q_parent,
        "change": q_change,
        "wins": wins,
        "pairs": len(parent),
        "gain": len(parent) >= MIN_PAIRS
        and wins >= math.ceil(WIN_SHARE * len(parent))
        and gap > q_parent[2] - q_parent[0],
    }


def result_line(stdout: str) -> dict:
    """The JSON object on the last line of a benchmark run's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def run(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "benchmark/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {tree}: benchmark exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return result_line(done.stdout)


def benchmark_spec() -> tuple[float, list[tuple[str, str]]]:
    """The run length and the end-to-end metrics (name, better) of
    ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["run_seconds"], [(metric["name"], metric["better"]) for metric in spec["end_to_end"]]


def summary_lines(results: list[tuple[dict, dict]], metrics: list[tuple[str, str]]) -> list[str]:
    """One line per metric of the pairs ``(parent result, change
    result)``."""
    lines = []
    for name, better in metrics:
        stats = compare([value(a, name) for a, _ in results], [value(b, name) for _, b in results], better)
        p, c = stats["parent"], stats["change"]
        lines.append(
            f"{name}: parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]"
            f"  change {better} in {stats['wins']} of {stats['pairs']}"
            f"  gain {'holds' if stats['gain'] else 'does not hold'}"
        )
    return lines


def pair_line(k: int, seed: int, a: dict, b: dict, metrics: list[tuple[str, str]]) -> str:
    def side(result: dict) -> str:
        values = " ".join(f"{name}={value(result, name):.6g}" for name, _ in metrics)
        return f"{values} correct={result['correct']} failed={result['failed']}/{result['attempted']}"

    return f"pair {k + 1} seed {seed}: parent {side(a)} | change {side(b)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=pathlib.Path, help="the parent checkout")
    parser.add_argument("tree_b", type=pathlib.Path, help="the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    seconds, metrics = benchmark_spec()
    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    results = []
    for k in range(args.pairs):
        seed = args.seed_base + k
        flip = k % 2
        first, second = (run(tree, args.workload, seed, seconds) for tree in (trees[::-1] if flip else trees))
        a, b = (second, first) if flip else (first, second)
        results.append((a, b))
        print(pair_line(k, seed, a, b, metrics), flush=True)
    for line in summary_lines(results, metrics):
        print(line)
    return 0 if all(a["correct"] and b["correct"] for a, b in results) else 1


if __name__ == "__main__":
    sys.exit(main())
