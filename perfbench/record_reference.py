"""Write ``reference.json``: each workload's gated values at the reference seed.

    python3 perfbench/record_reference.py

Run it only on the commit whose outputs define the reference; the gate then
compares every run at ``gate.REFERENCE_SEED`` with these values.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import gate  # noqa: E402
from workloads import WORKLOADS, GlsWorkload  # noqa: E402


def main() -> int:
    seed = gate.REFERENCE_SEED
    reference = {}
    for name, wl in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            if isinstance(wl, GlsWorkload):
                inputs = wl.inputs(seed)
                result = wl.run(inputs)
                failures = [m for msgs in gate.check_gls(inputs, result).values() for m in msgs]
            else:
                result = wl.run(seed, Path(tmp) / "out")
                failures = gate.check_cli(wl, seed, result)
            if failures:
                print(f"{name}: gate failed, not recording: {failures}", file=sys.stderr)
                return 1
            reference[name] = gate.extract_reference(wl, result)
        print(f"{name}: recorded")
    gate.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
