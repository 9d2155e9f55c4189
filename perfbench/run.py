"""skorotail benchmark: one workload, one fresh process, one JSON result.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 12 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The workload repeats for at least ``--seconds`` seconds, one
operation after another in a single thread (a closed loop with one client).
With ``--trace 0`` the last line reports the end-to-end metrics of
``BENCHMARK.json`` (median over the repetitions); with ``--trace 1``
untraced and traced repetitions alternate and the last line reports the
per-layer metrics.  Every operation's output passes through the correctness
gate after the timed region; the exit code is 1 when any check fails and 2
when the program cannot be imported.  Provenance and, for traced runs, the
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# One process and no extra threads: BLAS and OpenMP pools are pinned to one
# thread before numpy loads, here and in the set-up probes.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup() -> float:
    """Median wall time from starting a fresh interpreter until
    ``import skorotail`` returns in it."""
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = "import skorotail, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              cwd=ROOT, env=env) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed to import skorotail")
    return statistics.median(times)


def provenance(args, report_sha256: str) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": min(int(os.environ["OPENBLAS_NUM_THREADS"]), nproc),
        "seed": args.seed,
        "argv": sys.argv,
        "report_sha256": report_sha256,
    }


def run_workload(wl, args, workdir: Path):
    """Repeat the workload for ``args.seconds``; returns per-repetition
    records ``(traced, run_s, result, tracer)``, the inputs and the peak
    resident memory in MiB up to the end of the first repetition."""
    import spans
    from workloads import GlsWorkload

    inputs = wl.inputs(args.seed) if isinstance(wl, GlsWorkload) else None
    reps = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        tracer = spans.Tracer() if traced else None
        outdir = workdir / f"rep{len(reps)}"
        with spans.traced(tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = wl.run(inputs) if inputs is not None else wl.run(args.seed, outdir)
            except Exception as exc:  # an operation that raises counts as failed
                print(f"{wl.name}: repetition {len(reps)} raised {exc!r}", file=sys.stderr)
                result = exc
            run_s = time.perf_counter() - t0
        reps.append((traced, run_s, result, tracer))
        if len(reps) == 1:
            # ru_maxrss only grows; later repetitions would add allocator
            # fragmentation, so the peak is taken over the first one
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            return reps, inputs, peak_rss_mb


def _files(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def gate_cli(wl, seed, reps) -> tuple[int, int, str]:
    """Gate the first repetition fully; later ones must reproduce its
    output bytes, exit code and stdout exactly."""
    import gate

    first = reps[0][2]
    if isinstance(first, Exception):
        return len(reps), len(reps), ""
    failures = gate.check_cli(wl, seed, first, gate.reference_for(wl.name, seed))
    for msg in failures:
        print(f"{wl.name}: FAIL {msg}", file=sys.stderr)
    expected = (first["code"], first["stdout"], _files(first["outdir"]))
    failed = int(bool(failures))
    for _, _, result, _ in reps[1:]:
        same = (not isinstance(result, Exception)
                and (result["code"], result["stdout"], _files(result["outdir"])) == expected)
        failed += 1 if (failures or not same) else 0
    report = first["outdir"] / ("report.json" if wl.command == "verify" else "summary.json")
    return len(reps), failed, hashlib.sha256(report.read_bytes()).hexdigest()


def gate_gls(wl, seed, inputs, reps) -> tuple[int, int, str]:
    import gate
    from workloads import GLS_OPS, canonical

    per_rep = len(GLS_OPS)
    first = reps[0][2]
    if isinstance(first, Exception):
        return per_rep * len(reps), per_rep * len(reps), ""
    failures = gate.check_gls(inputs, first, gate.reference_for(wl.name, seed))
    bad = {op for op, msgs in failures.items() if msgs}
    for op in sorted(bad):
        for msg in failures[op]:
            print(f"{wl.name}: FAIL {op}: {msg}", file=sys.stderr)
    expected = canonical(first)
    failed = len(bad)
    for _, _, result, _ in reps[1:]:
        got = {} if isinstance(result, Exception) else canonical(result)
        failed += sum(op in bad or got.get(op) != expected[op] for op in GLS_OPS)
    blob = json.dumps(expected, sort_keys=True).encode()
    return per_rep * len(reps), failed, hashlib.sha256(blob).hexdigest()


def metric_values(spec: dict, section: str, values: dict) -> dict:
    out = {}
    for metric in spec[section]:
        name = metric["name"]
        if name not in values:
            print(f"warning: no measurement for {name}; reporting 0", file=sys.stderr)
        out[name] = {"value": values.get(name, 0), "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").exists() else None
    if spec is None or not (SRC / "skorotail" / "__init__.py").exists():
        print(f"error: no skorotail sources under {SRC} (or no BENCHMARK.json)", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import skorotail

    if Path(skorotail.__file__).resolve().parent != SRC / "skorotail":
        print(f"error: imported skorotail from {skorotail.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s = measure_setup() if not args.trace else None
        reps, inputs, peak_rss_mb = run_workload(wl, args, workdir)
        if inputs is None:
            attempted, failed, sha = gate_cli(wl, args.seed, reps)
        else:
            attempted, failed, sha = gate_gls(wl, args.seed, inputs, reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [run_s for traced, run_s, _, _ in reps if not traced]
    if args.trace:
        traced_reps = [(run_s, tracer) for traced, run_s, _, tracer in reps if traced]
        layer = [spans.layer_metrics(tracer) for _, tracer in traced_reps]
        values = {key: statistics.median(m[key] for m in layer) for key in layer[0]}
        values["trace.overhead_s"] = (statistics.median(r for r, _ in traced_reps)
                                      - statistics.median(plain))
        metrics = metric_values(spec, "per_layer", values)
        span_file = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        span_file.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed,
            "repetitions": [{"run_s": run_s, "spans": tracer.spans}
                            for run_s, tracer in traced_reps],
        }))
    else:
        values = {"run_s": statistics.median(plain), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = metric_values(spec, "end_to_end", values)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    prov = provenance(args, sha)
    record = {**result, "workload": wl.name, "failed_ops_frac": failed / attempted,
              "run_s_each": plain, "provenance": prov}
    if args.trace:
        # these counts are computed from call arguments and array sizes, not timed
        record["computed_counts"] = sorted({f"{prefix}.{key}" for prefix, keys, _
                                            in spans.COUNTERS.values() for key in keys})
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"provenance": prov, "failed_ops_frac": failed / attempted}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
