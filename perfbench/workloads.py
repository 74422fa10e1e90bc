"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks its output must pass.

The seed sets only the phase of the coherent amplitude alpha.  The model is
covariant under that phase (a rotation by exp(-i phi (N + |e><e|)) commutes
with the generator and with both split factors), so the seed changes no
amount of work and no error size, only which state is propagated.

Each workload object builds its inputs in the constructor (counted in
set-up), reuses what warm_up() fills, times run(), and checks the output
with check() against expected(), which comes from the independent reference
in reference.py and is computed once, outside the timed region.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from pathlib import Path

import numpy as np

import dampedjc
from dampedjc import cli

import reference

RATES = {"omega0": 1.0, "Omega": 1.0, "mu": 0.4, "nu": 0.1}


def seeded_alpha(seed: int, modulus: float) -> complex:
    return modulus * cmath.exp(2j * math.pi * random.Random(seed).random())


def alpha_arg(alpha: complex) -> str:
    """--alpha=<exact text>: repr digits round-trip through complex(), and the
    '=' form keeps argparse from reading a leading '-' as an option."""
    return f"--alpha={alpha.real!r}{alpha.imag:+}j"


def read_csv(path: Path):
    """(comment lines, {column: array}) of a file the CLI wrote."""
    comments, rows, header = [], [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    data = np.array(rows)
    return comments, {c: data[:, i] for i, c in enumerate(header)}


def columns(rows: list) -> dict:
    """[{name: value}] per grid point -> {name: array over the grid}."""
    return {key: np.array([r[key] for r in rows]) for key in rows[0]}


@contextlib.contextmanager
def quiet():
    """Swallow the CLI's progress lines ('wrote ...', slopes) during a run."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield sink


class _Base:
    def __init__(self, model: reference.Model):
        self.model = model
        self.params = dampedjc.ModelParams(dim=model.dim, **RATES)
        self.rho0 = cli.initial_state(cli.config_from_dict(
            {"dim": model.dim, "alpha": [model.alpha.real, model.alpha.imag]}))
        self._expected = None

    def warm_up(self):
        """Fill the program's per-params cache of sparse split3 generators,
        which every later split3 call with these params reuses."""
        dampedjc.propagate(self.rho0, 1e-3, self.params, dampedjc.PropagatorOrder.SPLIT3)

    def run(self):
        """One in-process CLI run of self.argv; returns (comments, columns)
        of the CSV it wrote."""
        with quiet() as said:
            try:
                code = cli.main(self.argv)
            except SystemExit as e:   # argparse rejects the arguments
                code = e.code
        if code != 0:
            raise RuntimeError(f"dampedjc exited with code {code}: {said.getvalue()}")
        return read_csv(self.out)

    def expected(self):
        if self._expected is None:
            self._expected = self._compute_expected()
        return self._expected


class DefaultTrajectory(_Base):
    """The README default CLI run: oracle-expm, split2 and split3, single-shot."""

    name = "default-trajectory"
    methods = ("oracle_expm", "split2", "split3")
    # Bounds with about twice the measured margin (dim 24: 0.106 and 0.180).
    split_order = {"split2": (2, 0.2), "split3": (3, 0.4)}
    rounding = 1e-12        # oracle vs reference, traces (measured <= 4e-14)
    closed_form_tol = 2e-13  # split2 vs example_solution (measured 4e-14)

    def __init__(self, seed: int, workdir: Path, dim=24, t_max=2.0, points=41):
        super().__init__(reference.Model(dim, seeded_alpha(seed, 1.0)))
        self.t_max, self.points = t_max, points
        self.out = workdir / f"{self.name}.csv"
        self.argv = ["--dim", str(dim), "--tmax", repr(t_max), "--points", str(points),
                     alpha_arg(self.model.alpha),
                     "--method", "oracle-expm,split2,split3", "--out", str(self.out)]

    def _compute_expected(self):
        ts = np.linspace(0.0, self.t_max, self.points)
        ref = [reference.observables(s)
               for s in reference.trajectory(self.model, self.t_max, self.points)]
        closed = [reference.observables(
            dampedjc.example_solution(self.model.alpha, float(t), self.params).full())
            for t in ts]
        return ts, columns(ref), columns(closed)

    def check(self, output) -> list:
        # Comparisons are written 'not x <= bound' so that NaN fails them.
        ts, ref, closed = self.expected()
        table = output[1]
        bad = []
        if not np.array_equal(table["t"], ts):
            return ["t column differs from the requested grid"]
        for key in ref:
            dev = np.abs(table[f"oracle_expm_{key}"] - ref[key]).max()
            if not dev <= self.rounding:
                bad.append(f"oracle {key} deviates from the reference by {dev:.3e}")
        if not np.abs(table["oracle_expm_tdist_oracle"]).max() <= self.rounding:
            bad.append("oracle column has a nonzero distance to itself")
        for m in self.methods:
            dev = np.abs(table[f"{m}_trace"] - 1.0).max()
            if not dev <= self.rounding:
                bad.append(f"{m} trace deviates from 1 by {dev:.3e}")
        if not table["split2_min_eig"].min() >= -self.rounding:
            bad.append(f"split2 min_eig {table['split2_min_eig'].min():.3e} < 0")
        for key in closed:
            dev = np.abs(table[f"split2_{key}"] - closed[key]).max()
            if not dev <= self.closed_form_tol:
                bad.append(f"split2 {key} deviates from example_solution by {dev:.3e}")
        early = (ts > 0) & (ts * self.model.rate <= 1.0 + 1e-12)
        for m, (order, const) in self.split_order.items():
            dist = table[f"{m}_tdist_oracle"]
            worst = (dist[early] / ts[early] ** order).max()
            if not worst <= const:
                bad.append(f"{m} distance / t^{order} reaches {worst:.3f} > {const}")
            # |p1 - p1_ref| is a projector expectation, so it cannot exceed the
            # trace distance: this ties tdist_oracle to the reference.
            gap = (np.abs(table[f"{m}_p1"] - ref["p1"]) - dist).max()
            if not gap <= self.rounding:
                bad.append(f"{m} p1 error exceeds its tdist_oracle by {gap:.3e}")
        return bad


class SplitStepping(_Base):
    """Library stepping with propagate: split2 then split3, one shared h."""

    name = "split-stepping"
    # Bounds with about twice the measured margin (dim 40: 1.0e-3, 1.4e-5).
    bounds = {"split2": 2e-3, "split3": 3e-5}

    def __init__(self, seed: int, workdir: Path, dim=40, t_max=2.0, points=41,
                 h=0.01):
        super().__init__(reference.Model(dim, seeded_alpha(seed, 1.5)))
        self.t_max, self.points = t_max, points
        self.substeps = round(t_max / (points - 1) / h)
        self.h = t_max / (points - 1) / self.substeps

    def run(self):
        out = {}
        for name in self.bounds:
            order = dampedjc.PropagatorOrder(name)
            cur, states = self.rho0, [self.rho0]
            for _ in range(self.points - 1):
                for _ in range(self.substeps):
                    cur = dampedjc.propagate(cur, self.h, self.params, order)
                states.append(cur)
            out[name] = states
        return out

    def _compute_expected(self):
        return reference.trajectory(self.model, self.t_max, self.points)

    def check(self, states) -> list:
        ref = self.expected()
        bad = []
        for name, bound in self.bounds.items():
            worst = max(reference.trace_distance(s.full(), r)
                        for s, r in zip(states[name], ref))
            if not worst <= bound:
                bad.append(f"{name} trace distance to the reference {worst:.3e} > {bound}")
        return bad


class ConvergenceStudy(_Base):
    """The README single-step convergence study through the CLI."""

    name = "convergence-study"
    h_list = (0.16, 0.08, 0.04, 0.02)
    slopes = {"split2": 2.0, "split3": 3.0}
    slope_tol = 0.1      # measured 1.986 and 2.972
    error_tol = 1e-12    # study error vs error recomputed against the reference

    def __init__(self, seed: int, workdir: Path, dim=20):
        super().__init__(reference.Model(dim, seeded_alpha(seed, 1.0)))
        self.out = workdir / f"{self.name}.csv"
        self.argv = ["--study", "convergence", "--h-list", ",".join(map(repr, self.h_list)),
                     "--dim", str(dim), alpha_arg(self.model.alpha),
                     "--out", str(self.out)]

    def _compute_expected(self):
        errors = {}
        for name in self.slopes:
            order = dampedjc.PropagatorOrder(name)
            errors[name] = [reference.trace_distance(
                dampedjc.propagate(self.rho0, h, self.params, order).full(),
                reference.evolve(self.model, h)) for h in self.h_list]
        return errors

    def check(self, output) -> list:
        errors = self.expected()
        comments, columns = output
        bad = []
        if tuple(columns["h"]) != self.h_list:
            return ["h column differs from the requested step sizes"]
        fitted = dict(c.split("=", 1) for c in comments if c.startswith("slope_"))
        for name, want in self.slopes.items():
            slope = float(fitted[f"slope_{name}"])
            if not abs(slope - want) <= self.slope_tol:
                bad.append(f"{name} slope {slope:.3f} is not near {want}")
            dev = np.abs(columns[f"{name}_err"] - errors[name]).max()
            if not dev <= self.error_tol:
                bad.append(f"{name} study errors deviate from the reference by {dev:.3e}")
        return bad


WORKLOADS = {w.name: w for w in (DefaultTrajectory, SplitStepping, ConvergenceStudy)}
