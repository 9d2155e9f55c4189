"""Tests of the benchmark itself: the gate, the span accounting and the counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import skorotail.paths  # noqa: E402
import skorotail.simulate  # noqa: E402

SEED = 3
TINY = workloads.CliWorkload("tiny-verify", "verify", flags={"grid": 16, "paths": 400},
                             oracle_paths=4)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("tiny") / "out"
    return TINY.run(SEED, outdir)


def _copy(result, tmp_path) -> dict:
    outdir = tmp_path / "copy"
    shutil.copytree(result["outdir"], outdir)
    return {**result, "outdir": outdir}


def _rewrite(path: Path, row: int, col: int, value: float) -> None:
    lines = path.read_text().splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = f"{value:.17g}"
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


def test_gate_accepts_clean_output(tiny):
    assert tiny["code"] in (0, 1)
    assert gate.check_cli(TINY, SEED, tiny) == []


def test_gate_rejects_changed_tail_count(tiny, tmp_path):
    bad = _copy(tiny, tmp_path)
    path = bad["outdir"] / "tail_delta.csv"
    _, data = gate.read_table(path)
    m = TINY.params["paths"]
    _rewrite(path, 0, 1, (round(data[0, 1] * m) - 1) / m)
    failures = gate.check_cli(TINY, SEED, bad)
    assert any("recount" in f for f in failures), failures


def test_gate_rejects_lowered_envelope(tiny, tmp_path):
    bad = _copy(tiny, tmp_path)
    header, w = gate.read_table(bad["outdir"] / "pair_norms.csv")
    _, env = gate.read_table(bad["outdir"] / "envelope.csv")
    g = env[:, 1]
    slack = np.where(np.triu(w, 1) > 0, g[None, :] - g[:, None] - w, np.inf)
    a, b = np.unravel_index(np.argmin(slack), slack.shape)
    # lower G from the tightest pair's upper end on, keeping G nondecreasing
    drop = slack[a, b] + 1e-3 * g[-1]
    for row in range(b, g.size):
        _rewrite(bad["outdir"] / "envelope.csv", row, 1, g[row] - drop)
    failures = gate.check_cli(TINY, SEED, bad)
    assert any("certificate" in f for f in failures), failures


def test_reference_rejects_changed_module_count(tiny, tmp_path):
    reference = gate.extract_reference(TINY, tiny)
    assert gate.check_cli(TINY, SEED, tiny, reference) == []
    bad = _copy(tiny, tmp_path)
    path = bad["outdir"] / "tail_kappa_0.05.csv"
    _, data = gate.read_table(path)
    row = int(np.argmax(data[:, 1] > 0))
    _rewrite(path, row, 1, data[row, 1] + 1 / TINY.params["paths"])
    failures = gate.check_cli(TINY, SEED, bad, reference)
    assert any("tail_kappa_0.05.csv: differs from the reference" in f for f in failures)


def test_reference_allows_only_a_tighter_envelope(tiny):
    reference = gate.extract_reference(TINY, tiny)
    looser = {**reference, "g_total": reference["g_total"] * 1.01}
    tighter = {**reference, "g_total": reference["g_total"] * 0.99}
    assert gate.check_cli(TINY, SEED, tiny, looser) == []
    assert gate.check_cli(TINY, SEED, tiny, tighter) != []


def test_gls_gate_rejects_changed_tail_constant():
    wl = workloads.GlsWorkload("tiny-gls", n_draws=3000)
    inputs = wl.inputs(SEED)
    out = wl.run(inputs)
    reference = gate.extract_reference(wl, out)
    assert all(msgs == [] for msgs in gate.check_gls(inputs, out, reference).values())
    rep = out["mte_pareto"]
    out["mte_pareto"] = dataclasses.replace(rep, tail_constant=rep.tail_constant * 1.001)
    failures = gate.check_gls(inputs, out, reference)
    assert len(failures["mte_pareto"]) == 2  # the oracle and the reference
    assert all(msgs == [] for op, msgs in failures.items() if op != "mte_pareto")


def test_run_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "gls-tails",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# spans and self times
# ---------------------------------------------------------------------------


def test_self_times_subtract_children():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0],
                ["d", 2.0, 3.0, 1]]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_self_times_add_up_to_traced_run(tmp_path):
    original = skorotail.simulate.ps_module_matrix
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert skorotail.simulate.ps_module_matrix is not original
        t0 = time.perf_counter()
        TINY.run(SEED, tmp_path / "out")
        run_s = time.perf_counter() - t0
    assert skorotail.simulate.ps_module_matrix is original
    metrics = spans.layer_metrics(tracer)
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert metrics["cli.self_s"] > 0
    assert total == pytest.approx(sum(spans.self_times(tracer.spans)))
    assert total == pytest.approx(run_s, rel=0.02, abs=2e-3)
    # simulate resolves ps_module_matrix in its own namespace
    assert metrics["paths.ps_module_matrix.calls"] == len(gate._floats(TINY.params["h"]))


# ---------------------------------------------------------------------------
# counts against a tiny enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,n_orders,k", [(1, 1, 1), (3, 2, 5), (7, 5, 9)])
def test_triple_counts_match_enumeration(m, n_orders, k):
    triples = sum(1 for s in range(k) for _r in range(s + 1) for _t in range(s, k))
    assert spans.triple_min_evals(m, n_orders, k) == m * n_orders * triples
    moved = 0
    v = np.ones((m, k), dtype=np.float32)
    for s in range(k):
        a, b = v[:, : s + 1], v[:, s:]
        for p in range(n_orders):
            ap, bp = a ** np.float32(p + 2), b ** np.float32(p + 2)
            buf = np.minimum(ap[:, :, None], bp[:, None, :])
            moved += a.nbytes + ap.nbytes + b.nbytes + bp.nbytes + 2 * buf.nbytes
    assert spans.triple_bytes(m, n_orders, k) == moved


@pytest.mark.parametrize("n,delta", [(11, 0.2), (11, 0.0), (17, 0.3), (9, 1.0)])
def test_pair_updates_match_module_loop(n, delta):
    t = np.linspace(0.0, 1.0, n)
    caps = [int(np.nonzero(t - t[r] <= delta)[0][-1]) for r in range(n)]
    pairs = sum(1 for s in range(n) for r in range(s + 1) if caps[r] >= s)
    assert spans.admissible_pairs(t, delta) == pairs
    tracer = spans.Tracer()
    with spans.traced(tracer):
        skorotail.paths.ps_module_matrix(t, np.zeros((4, n)), delta)
    assert tracer.counts["paths.ps_module_matrix.pair_updates"] == 4 * pairs


def test_tail_evals_match_enumeration():
    draws = np.array([-5.0, 5.0, 2.0, np.e, -np.e, 3.5, 0.1, 3.5])
    assert spans.tail_evals(draws) == len({abs(x) for x in draws if abs(x) >= np.e})
