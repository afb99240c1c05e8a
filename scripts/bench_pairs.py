"""Paired benchmark runs of two checkouts: a parent and a change.

For each workload the script runs

    python3 perfbench/run.py --workload W --seed N --trace 0

from the root of each checkout, ``--pairs`` times with seeds N = seed0,
seed0 + 1, ...  Both sides of a pair use the same seed, and the side that runs
first alternates from pair to pair, so a slow spell of the host does not fall
on one side only.  Runs are sequential, and their length is the benchmark's
own, the same on both sides.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --tag zero_screen --pairs 10

It runs every workload of the change checkout's ``BENCHMARK.json`` and writes
``BENCH_<tag>.json`` into the change checkout, with every run's result line
and, per workload, each side's median and quartiles of every end-to-end
metric, the change-to-parent ratio of the medians, and in how many pairs the
change side was better.  The direction of "better" is read from the same
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def git_head(checkout: Path) -> str | None:
    res = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True,
        text=True,
    )
    return res.stdout.strip() if res.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run; its last stdout line is the result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    record = {"seed": seed, "exit_code": res.returncode, "elapsed_s": time.perf_counter() - t0}
    lines = res.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
        record["stderr_tail"] = res.stderr.strip().splitlines()[-5:]
    return record


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def metrics_of(run: dict) -> dict:
    return (run["result"] or {}).get("metrics") or {}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per-side quartiles, the ratio of medians and the pairs the change won."""
    summary: dict = {"change_over_parent": {}, "pairs_change_better": {}}
    for side in SIDES:
        values: dict[str, list[float]] = {}
        for run in runs[side]:
            for name, entry in metrics_of(run).items():
                values.setdefault(name, []).append(entry["value"])
        summary[side] = {name: quartiles(v) for name, v in values.items()}
        summary[side]["all_correct"] = all((r["result"] or {}).get("correct") is True for r in runs[side])
        summary[side]["failed_ops"] = sum((r["result"] or {}).get("failed", 0) for r in runs[side])
    for name, direction in better.items():
        if name not in summary["parent"] or name not in summary["change"]:
            continue
        summary["change_over_parent"][name] = summary["change"][name]["median"] / summary["parent"][name]["median"]
        wins = 0
        for p, c in zip(runs["parent"], runs["change"]):
            pv, cv = metrics_of(p).get(name), metrics_of(c).get(name)
            if pv is not None and cv is not None:
                diff = cv["value"] - pv["value"]
                wins += diff < 0 if direction == "lower" else diff > 0
        summary["pairs_change_better"][name] = wins
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    parser.add_argument("--tag", required=True, help="output name: BENCH_<tag>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")

    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    out_path = checkouts["change"] / f"BENCH_{args.tag}.json"

    doc = {
        "tag": args.tag,
        "command": "python3 perfbench/run.py --workload W --seed N --trace 0",
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()},
        "commits": {side: git_head(path) for side, path in checkouts.items()},
        "pairs": args.pairs,
        "workloads": {},
    }
    for workload in workloads:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                record = run_once(checkouts[side], workload, seed)
                record["pair"], record["first"] = i, side == order[0]
                runs[side].append(record)
                print(f"{workload} pair {i} seed {seed} {side}: exit {record['exit_code']}, "
                      f"{record['elapsed_s']:.0f} s", file=sys.stderr, flush=True)
        doc["workloads"][workload] = {"runs": runs, "summary": summarize(runs, better)}
        out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
