"""The benchmark's three workloads.

``verify-default`` and ``simulate-fine`` go through the public CLI entry
point ``skorotail.cli.run(argv)``; ``gls-tails`` is a fixed sequence of
library calls.  Every library function is looked up on its module at call
time, so a traced run reaches the span wrappers.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from skorotail import bounds, cli, gls

# The CLI's simulation defaults.  A workload passes only the flags that
# differ; the gate rebuilds the same run from the merged values.
CLI_DEFAULTS = {
    "process": "compound-poisson",
    "rate": 5.0,
    "grid": 64,
    "paths": 10_000,
    "p_grid": "2,4,8,16,32",
    "u_points": 20,
    "h": "0.05,0.1",
    "confidence": 0.99,
}


@dataclass(frozen=True)
class CliWorkload:
    """One ``skorotail`` CLI invocation per operation."""

    name: str
    command: str
    flags: dict = field(default_factory=dict)
    # paths whose fast statistics are checked against the O(n^3) brute force
    oracle_paths: int = 16

    @property
    def params(self) -> dict:
        return {**CLI_DEFAULTS, **self.flags}

    def argv(self, seed: int, outdir: Path) -> list[str]:
        args = [self.command]
        for key, value in self.flags.items():
            flag = "--" + key.replace("_", "-")
            args += [flag] if value is True else [flag, str(value)]
        return args + ["--seed", str(seed), "--out", str(outdir)]

    def run(self, seed: int, outdir: Path) -> dict:
        """Run once; returns the exit code and what the CLI printed."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(self.argv(seed, outdir))
        return {"code": code, "stdout": out.getvalue(), "outdir": outdir}


# Grids the gls-tails calls use, fixed here so the gate can recompute them.
MTE_P_GRID = np.logspace(0.0, np.log10(256.0), 200, endpoint=False)
JOINT_P_GRID = np.logspace(-1.0, np.log10(16.0), 60)
TAIL_X = np.linspace(0.0, 8.0, 81)
JOINT_U = (2.0, 4.0)


@dataclass(frozen=True)
class GlsWorkload:
    """Heavy-tailed and Gaussian samples through the ``gls`` and joint-tail
    calls; the samples are drawn from the seed before timing starts."""

    name: str
    n_draws: int = 100_000

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        pareto = rng.pareto(1.5, self.n_draws) + 1.0
        gauss = rng.normal(size=self.n_draws)
        # exactly centered, so mgf_norm and natural_phi accept every seed
        gauss -= gauss.mean()
        psi = gls.PsiFunction.from_callable(np.sqrt, p_max=64.0)
        return {"pareto": pareto, "gauss": gauss, "psi": psi}

    def run(self, x: dict) -> dict:
        out = {}
        pareto = gls.EmpiricalSample(x["pareto"])
        gauss = gls.EmpiricalSample(x["gauss"])
        out["mte_pareto"] = gls.moment_tail_equivalence(pareto, m=1.0, p_grid=MTE_P_GRID)
        out["mte_gauss"] = gls.moment_tail_equivalence(gauss, m=2.0, p_grid=MTE_P_GRID)
        phi = gls.natural_phi(gauss)
        out["natural_phi"] = phi
        out["mgf_norm"] = gls.mgf_norm(gauss, phi)
        out["gls_norm"] = gls.gls_norm(gauss, x["psi"])
        out["tail_from_phi"] = gls.tail_from_phi(phi, 1.0 / out["mgf_norm"], TAIL_X)
        joint = bounds.EmpiricalJointMoment(x["gauss"], x["pareto"])
        for u in JOINT_U:
            out[f"min_tail_2d_u{u:g}"] = bounds.min_tail_2d(
                joint, u, u, p1_grid=JOINT_P_GRID, p2_grid=JOINT_P_GRID)
        return out


GLS_OPS = ("mte_pareto", "mte_gauss", "natural_phi", "mgf_norm", "gls_norm",
           "tail_from_phi") + tuple(f"min_tail_2d_u{u:g}" for u in JOINT_U)


def canonical(outputs: dict) -> dict:
    """gls-tails outputs as plain JSON values, for comparison and hashing."""
    out = {}
    for key, value in outputs.items():
        if isinstance(value, gls.PhiFunction):
            value = {"grid": value.grid.tolist(), "values": value.values.tolist()}
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        elif hasattr(value, "__dataclass_fields__"):
            value = asdict(value)
        else:
            value = float(value)
        out[key] = value
    return out


WORKLOADS = {
    # Triple-moment estimation dominates: the product's main command.
    "verify-default": CliWorkload("verify-default", "verify"),
    # Module and io dominate; stride 8 keeps the triple moments small.
    "simulate-fine": CliWorkload(
        "simulate-fine", "simulate",
        flags={"grid": 256, "paths": 5000, "stride": 8, "h": "0.05,0.1,0.2",
               "beta_grid": "0.01,0.05,0.1,0.2", "write_paths": True},
        oracle_paths=1,
    ),
    # gls dominates; paths and simulate are never called.
    "gls-tails": GlsWorkload("gls-tails"),
}
