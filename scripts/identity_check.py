"""Check that two checkouts produce the same detection reports.

For each case of a fixed list, the script simulates one series with the
parent checkout's ``seppchange simulate``, runs

    python3 -m seppchange.cli detect counts.csv --truth truth.json <flags>

on it in both checkouts (each with its own ``src`` on ``PYTHONPATH``), and
compares the two ``report.json`` files key by key, except ``timing`` and
``manifest``.  Floats are compared exactly: the JSON text of a float is its
shortest round-trip form, so equal text means equal bits.

Usage, from anywhere:

    python3 scripts/identity_check.py --parent ../parent --change .

It prints one line per case and exits with 1 if any report differs, or if
a command fails, and with 0 otherwise.  Scratch files go to a temporary
directory (``--workdir`` keeps them in a given one instead).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
IGNORED = ("timing", "manifest")

# (name, simulate arguments, detect flags)
DETECT_DEFAULT = ["--setting", "a", "--rho", "0.35", "--seed", "20260810", "--replication", "0"]
CASES = [
    ("a-default-grid1", DETECT_DEFAULT, []),
    ("a-default-grid7", DETECT_DEFAULT, ["--grid", "7"]),
    ("a-lam400-grid30", DETECT_DEFAULT, ["--lambda", "400", "--grid", "30"]),
    ("a-lam400-grid10", DETECT_DEFAULT, ["--lambda", "400", "--grid", "10"]),
    ("a-lam200-grid15", DETECT_DEFAULT, ["--lambda", "200", "--grid", "15"]),
    *(
        (f"b-T90-seed{seed}", ["--setting", "b", "--T", "90", "--seed", str(seed)], [])
        for seed in (1, 2, 3)
    ),
    ("c-M80", ["--setting", "c", "--M", "80", "--seed", "1"], []),
]


def cli(checkout: Path, args: list[str], log: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with open(log, "w", encoding="utf-8") as fh:
        res = subprocess.run(
            [sys.executable, "-m", "seppchange.cli", *args], env=env, stdout=fh, stderr=subprocess.STDOUT
        )
    if res.returncode != 0:
        tail = "\n".join(log.read_text().splitlines()[-5:])
        raise RuntimeError(f"seppchange {args[0]} exited with {res.returncode}:\n{tail}")


def differences(a, b, path: str = "") -> list[str]:
    """Paths at which two JSON values differ, by type and exact value."""
    if type(a) is not type(b):
        return [f"{path or '/'}: {a!r} != {b!r}"]
    if isinstance(a, dict):
        out = [f"{path}/{k}: only in one report" for k in sorted(a.keys() ^ b.keys())]
        for k in sorted(a.keys() & b.keys()):
            out += differences(a[k], b[k], f"{path}/{k}")
        return out
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in differences(x, y, f"{path}/{i}")]
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def check(checkouts: dict[str, Path], workdir: Path) -> int:
    failed = 0
    for name, sim_args, flags in CASES:
        case = workdir / name
        case.mkdir(parents=True, exist_ok=True)
        cli(checkouts["parent"], ["simulate", *sim_args, "-o", str(case)], case / "simulate.log")
        reports, secs = {}, {}
        for side in SIDES:
            out = case / f"{side}.json"
            t0 = time.perf_counter()
            cli(
                checkouts[side],
                ["detect", str(case / "counts.csv"), "--truth", str(case / "truth.json"), *flags, "-o", str(out)],
                case / f"{side}.log",
            )
            secs[side] = time.perf_counter() - t0
            doc = json.loads(out.read_text())
            reports[side] = {k: v for k, v in doc.items() if k not in IGNORED}
        diffs = differences(reports["parent"], reports["change"])
        cps = ",".join(map(str, reports["change"]["change_points"])) or "none"
        verdict = "same" if not diffs else f"DIFFERENT ({len(diffs)} values)"
        print(
            f"{name:18s} {' '.join(flags) or '(default tuning)':26s} change points {cps:12s} "
            f"parent {secs['parent']:.2f} s, change {secs['change']:.2f} s: {verdict}",
            flush=True,
        )
        for d in diffs[:10]:
            print(f"    {d}")
        failed += bool(diffs)
    print(f"{len(CASES) - failed} of {len(CASES)} cases identical")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    parser.add_argument("--workdir", type=Path, default=None, help="keep scratch files here")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "src" / "seppchange" / "cli.py").is_file():
            parser.error(f"--{side} {path} has no src/seppchange/cli.py")
    try:
        if args.workdir is not None:
            return check(checkouts, args.workdir.resolve())
        with tempfile.TemporaryDirectory(prefix="identity_check_") as tmp:
            return check(checkouts, Path(tmp))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
