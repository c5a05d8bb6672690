"""The benchmark's workloads.

A workload is built once per process from the benchmark seed (set-up),
then runs passes.  Pass i draws every mfsde `Seed` root and every config it
writes from (benchmark seed, workload, i), so each pass solves fresh
inputs, and the same benchmark seed always yields the same passes.  A pass
returns a `PassResult` with its verdict, a sha256 digest of its outputs and
its operation counts; an operation is one sample path (one replica or one
seed).

mfsde is reached only through module attributes looked up at call time
(`analysis.simulate_ensemble(...)`), so a tracer that rewraps the public
names sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mfsde import analysis, cli, fractional, models, noise

# Verdict thresholds sized to the pass, not to the acceptance tests.  A
# fit-and-holdout split and a KS test fail a correct program at a fixed
# rate that shrinks only with sample size; at the sizes below the
# acceptance-test cutoffs would fail passes by chance (see README).
CLI_VERIFY_REPLICAS = 120
CLI_HOLDOUT_FRACTION = 0.75
CLI_KS_PVALUE_MIN = 1e-5
CLI_SE_MULTIPLIER = 12.0
CLI_CONVERGENCE_REPLICAS = 1000
# With the default Wiener loading 0.25, about 7% of seeds do not shrink
# their error at every refinement, which leaves the 90% rule of
# `convergence` only ~4 standard errors of slack at 1000 seeds.
CLI_CONVERGENCE_SIGMA_W = 0.1
PATHWISE_SEEDS = 40
PATHWISE_MONOTONE_FRACTION = 0.8


def derive_root(seed: int, *labels) -> int:
    """A 31-bit mfsde seed root determined by the benchmark seed and labels."""
    text = "/".join(str(x) for x in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") % 2**31


def _sha256(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


@dataclass
class PassResult:
    ok: bool                # verdict PASS / every exit code 0
    digest: str
    operations: int
    excluded: int           # replicas excluded or raising inside a passing run
    detail: str
    counts: dict = field(default_factory=dict)


class MomentsJumps:
    """c08 shape: per-replica jump-restart Euler solves, then moments and tail."""

    name = "moments_jumps"
    replicas = 1000          # tail_diagnostic needs >= 1000 kept replicas

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.grid = noise.GridSpec(1.0, 256)
        self.frac = noise.FracParams(hurst=0.75)
        self.marks = noise.UniformMarks(-0.5, 0.5)

    def _coeffs(self):
        return models.build_model("trigonometric", b0=0.25, c0=0.25)

    def warm(self):
        analysis.simulate_ensemble(self._coeffs(), 1.0, noise.GridSpec(1.0, 16),
                                   self.frac, noise.Seed(derive_root(self.seed, self.name, "warm")),
                                   2, rate=3.0, marks=self.marks)

    def run(self, index: int) -> PassResult:
        ens = analysis.simulate_ensemble(
            self._coeffs(), 1.0, self.grid, self.frac,
            noise.Seed(derive_root(self.seed, self.name, index)), self.replicas,
            rate=3.0, marks=self.marks)
        table = analysis.estimate_moments(ens, (1.0, 2.0, 4.0, 8.0))
        tail = analysis.tail_diagnostic(ens, 8.0)
        lines = table.lines() + tail.lines()
        return PassResult(table.passed and tail.passed,
                          _sha256(ens.sup_values().tobytes(), "\n".join(lines)),
                          ens.requested, len(ens.excluded),
                          f"tail slope {tail.slope:.3g}")


class CliPipeline:
    """`mfsde.cli.main` in-process: simulate, verify all, convergence."""

    name = "cli_pipeline"
    commands = (
        ("simulate", ["simulate"]),
        ("verify", ["verify", "all"]),
        ("convergence", ["convergence", "--refinements", "3"]),
    )

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def configs(self, index) -> dict:
        def root(label):
            return derive_root(self.seed, self.name, index, label)
        return {
            # README quick-start shape
            "simulate": ("[model]\nname = mixed_geometric\n\n[noise]\nhurst = 0.75\n"
                         f"rate = 2.0\n\n[grid]\nsteps = 1024\n\n[seed]\nroot = {root('simulate')}\n"),
            "verify": ("[model]\nname = trigonometric\n\n[noise]\nhurst = 0.75\n"
                       "rate = 2.0\nmarks = uniform\nmark_low = -0.5\nmark_high = 0.5\n\n"
                       "[grid]\nsteps = 128\n\n[mc]\n"
                       f"replicas = {CLI_VERIFY_REPLICAS}\n"
                       f"holdout_pass_fraction = {CLI_HOLDOUT_FRACTION}\n"
                       f"ks_pvalue_min = {CLI_KS_PVALUE_MIN}\n"
                       f"se_multiplier = {CLI_SE_MULTIPLIER}\n\n"
                       f"[seed]\nroot = {root('verify')}\n"),
            "convergence": ("[model]\nname = mixed_geometric\n"
                            f"sigma_w = {CLI_CONVERGENCE_SIGMA_W}\n\n[noise]\nhurst = 0.75\n"
                            "rate = 0\n\n[grid]\nsteps = 256\n\n[mc]\n"
                            f"replicas = {CLI_CONVERGENCE_REPLICAS}\n\n"
                            f"[seed]\nroot = {root('convergence')}\n"),
        }

    @staticmethod
    def operations() -> int:
        # one path; four replica suites (lemma, selfsim, moments, jumps); seeds
        return 1 + 4 * CLI_VERIFY_REPLICAS + CLI_CONVERGENCE_REPLICAS

    def _invoke(self, workdir: Path, label: str, argv: list, config: str):
        cfg_path = workdir / f"{label}.ini"
        cfg_path.write_text(config, encoding="utf-8")
        out = workdir / label
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = cli.main(argv + ["--config", str(cfg_path), "--out", str(out)])
        return status, out

    def warm(self):
        workdir = Path(tempfile.mkdtemp(prefix="warm-", dir=self.scratch))
        try:
            config = self.configs("warm")["simulate"].replace("steps = 1024", "steps = 16")
            self._invoke(workdir, "simulate", ["simulate"], config)
        finally:
            shutil.rmtree(workdir)

    def run(self, index: int) -> PassResult:
        workdir = Path(tempfile.mkdtemp(prefix=f"pass{index}-", dir=self.scratch))
        try:
            configs = self.configs(index)
            statuses, manifests = [], []
            written = artifacts = 0
            excluded = 0
            for label, argv in self.commands:
                status, out = self._invoke(workdir, label, argv, configs[label])
                statuses.append(status)
                manifests.append((out / "manifest.txt").read_bytes())
                for path in out.iterdir():
                    written += path.stat().st_size
                    artifacts += 1
                summary = out / "moments_summary.txt"
                if summary.exists():
                    for line in summary.read_text(encoding="utf-8").splitlines():
                        if line.startswith("replicas excluded:"):
                            excluded += int(line.split(":")[1])
        finally:
            shutil.rmtree(workdir)
        return PassResult(all(s == 0 for s in statuses), _sha256(*manifests),
                          self.operations(), excluded,
                          "exit codes " + "/".join(str(s) for s in statuses),
                          {"cli.bytes_written": written, "cli.artifacts": artifacts})


class PathwiseIntegral:
    """c02 shape: compensated fractional integral against forward sums."""

    name = "pathwise_integral"
    levels = (256, 512, 1024, 2048)

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.master_grid = noise.GridSpec(1.0, self.levels[-1])
        self.integrands = []
        for steps in self.levels:
            xs = np.linspace(0.0, 1.0, steps + 1)
            self.integrands.append(2.0 * xs + np.abs(xs - 0.4) ** 0.6)

    def warm(self):
        xs = np.linspace(0.0, 1.0, 17)
        f = fractional.GridFunction(0.0, 1.0, xs)
        g = fractional.GridFunction(0.0, 1.0, xs ** 2)
        fractional.gls_integral(f, g, 0.45, refine=2)
        fractional.forward_sum_integral(f, g)
        noise.gen_fbm(noise.GridSpec(1.0, 16), 0.75,
                      noise.Seed(derive_root(self.seed, self.name, "warm")))

    def run(self, index: int) -> PassResult:
        diffs = np.empty((PATHWISE_SEEDS, len(self.levels)))
        for s in range(PATHWISE_SEEDS):
            root = derive_root(self.seed, self.name, index, s)
            master = noise.gen_fbm(self.master_grid, 0.75,
                                   noise.Seed(root).child(noise.FBM_STREAM))
            for j, (steps, hold) in enumerate(zip(self.levels, self.integrands)):
                stride = self.levels[-1] // steps
                f = fractional.GridFunction(0.0, 1.0, hold)
                g = fractional.GridFunction(0.0, 1.0, master.values[::stride])
                diffs[s, j] = abs(fractional.gls_integral(f, g, 0.45, refine=16)
                                  - fractional.forward_sum_integral(f, g))
        wins = int(np.sum(np.all(np.diff(diffs, axis=1) < 0.0, axis=1)))
        needed = math.ceil(PATHWISE_MONOTONE_FRACTION * PATHWISE_SEEDS)
        return PassResult(wins >= needed, _sha256(diffs.tobytes()),
                          PATHWISE_SEEDS, 0,
                          f"{wins}/{PATHWISE_SEEDS} seeds monotone")


WORKLOADS = {w.name: w for w in (MomentsJumps, CliPipeline, PathwiseIntegral)}
