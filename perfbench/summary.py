"""Run every workload of BENCHMARK.json and print each metric by name and unit.

    python3 perfbench/summary.py [--seed 0] [--seconds 12] [--trace 0]

Each workload runs in a fresh process through ``run.py``.  Besides the
metrics in its result, each workload's ``failed_ops_frac`` (operations that
failed the correctness gate over operations attempted) is printed.  Exits 1
when any workload fails a check or does not report a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ok = True
    print(f"{'workload':16} {'metric':48} {'value':>18} unit")
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        rows = [(key, m["value"], m["unit"]) for key, m in result["metrics"].items()]
        rows.append(("failed_ops_frac", result["failed"] / result["attempted"], "ratio"))
        for key, value, unit in rows:
            print(f"{name:16} {key:48} {value:>18.6g} {unit}")
        if proc.returncode != 0 or not result["correct"]:
            print(f"{name}: correctness gate failed\n{proc.stderr}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
