"""Command-line harness: observable trajectories and convergence studies.

Runs one or more propagation methods over a shared time grid, records a
fixed set of observables per method per time, and writes CSV (default) or
JSON.  Output is deterministic byte-for-byte for a given config: fixed
float formatting and sorted config embedding.  A method whose states turn
unphysical (negative eigenvalues) is reported by a warning on stderr, and
so is single-shot mode lifting the split methods' step bound (a note).
The TruncationWarnings of each method are counted into one warning line.

Exit codes: 0 success; 2 bad usage/config/parameters or missing files;
3 truncation failure (requested state does not fit the basis);
4 numerical failure (integrator diagnostics, non-finite results, a failed
linear-algebra routine or exhausted memory).
"""

from __future__ import annotations

import argparse
import cmath
import enum
import json
import math
import os
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields

import numpy as np
# This module calls none of expm, build_generator and oracle_propagate, but
# perfbench/tracing.py wraps these module-level names, so they stay bound.
from scipy.linalg import expm  # noqa: F401

from .errors import (
    ConfigError,
    DampedJCError,
    NumericalError,
    StepError,
    TruncationError,
    TruncationWarning,
)
from .fock import annihilation, coherent_state, number
from .oracle import OracleConfig, OracleMethod, oracle_trajectory
from .oracle import oracle_propagate  # noqa: F401
from .params import ModelParams
from .superop import (BLOCK_KEYS, GUARD_LEVELS, GUARD_TOL, BlockDensity,  # noqa: F401
                      build_generator, step_count, warn_on_guard_occupation)
from .zassenhaus import (
    DEFAULT_PAD,
    DEFAULT_STEP_BOUND,
    commutator_step,
    example_solution,
    propagate,
)

SCHEMA_VERSION = 1
MIN_EIG_TOL = 1e-10   # min_eig below -MIN_EIG_TOL draws a warning

ORACLE_EXPM = "oracle-expm"
ORACLE_RK4 = "oracle-rk4"
SPLIT_METHODS = ("diagonal-only", "split2", "split3")
CLOSED_FORM = "closed-form-example"
ALL_METHODS = (ORACLE_EXPM, ORACLE_RK4) + SPLIT_METHODS + (CLOSED_FORM,)

# exit code of a package error; any other DampedJCError exits 2
EXIT_CODES = {TruncationError: 3, NumericalError: 4, StepError: 4}


class InitialKind(enum.Enum):
    VACUUM_EXCITED = "vacuum-excited"
    COHERENT_DIAGONAL = "coherent-diagonal"
    CUSTOM_FILE = "custom-file"


@dataclass(frozen=True)
class ObservableRow:
    """One method's observables at one time."""
    trace: float
    p0: float
    p1: float
    mean_n: float
    re_a: float
    im_a: float
    tdist_oracle: float
    min_eig: float

    def values(self):
        return astuple(self)


OBSERVABLE_NAMES = tuple(f.name for f in fields(ObservableRow))


@dataclass(frozen=True)
class RunConfig:
    omega0: float = 1.0
    Omega: float = 1.0
    mu: float = 0.4
    nu: float = 0.1
    dim: int = 24
    t_max: float = 2.0
    points: int = 41
    methods: tuple = (ORACLE_EXPM, "split2", "split3")
    initial: str = InitialKind.VACUUM_EXCITED.value
    alpha: complex = 1.0 + 0.0j
    initial_path: str | None = None
    out: str | None = None
    format: str = "csv"
    step_mode: str = "single-shot"   # or "stepping"
    max_step_scale: float = 0.1      # stepping mode: h <= scale / max rate
    rk4_dt: float = 1e-3
    pad: int = DEFAULT_PAD

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.step_mode not in ("single-shot", "stepping"):
            raise ConfigError(f"step_mode must be single-shot or stepping, "
                              f"got {self.step_mode!r}")
        try:
            InitialKind(self.initial)
        except ValueError:
            raise ConfigError(
                f"initial must be one of {[k.value for k in InitialKind]}, "
                f"got {self.initial!r}") from None
        if not isinstance(self.points, int) or self.points < 2:
            raise ConfigError(f"points must be an integer >= 2, got {self.points!r}")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max!r}")
        if not (self.max_step_scale > 0):
            raise ConfigError(f"max_step_scale must be positive, got {self.max_step_scale!r}")
        if not cmath.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha!r}")
        if not (self.rk4_dt > 0):
            raise ConfigError(f"rk4_dt must be positive, got {self.rk4_dt!r}")
        if not (isinstance(self.pad, int) and self.pad >= 0):
            raise ConfigError(f"pad must be a non-negative integer, got {self.pad!r}")
        if not self.methods:
            raise ConfigError(f"at least one method is needed; choose from {list(ALL_METHODS)}")
        bad = [m for m in self.methods if m not in ALL_METHODS]
        if bad:
            raise ConfigError(f"unknown methods {bad!r}; choose from {list(ALL_METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"duplicate methods in {list(self.methods)!r}")
        if CLOSED_FORM in self.methods and self.initial != InitialKind.VACUUM_EXCITED.value:
            raise ConfigError(
                f"{CLOSED_FORM} is only defined for the {InitialKind.VACUUM_EXCITED.value} "
                f"initial state")
        for key in ("out", "initial_path"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise ConfigError(f"{key} must be a path string or null, "
                                  f"got {getattr(self, key)!r}")
        if self.initial == InitialKind.CUSTOM_FILE.value and not self.initial_path:
            raise ConfigError("initial=custom-file requires initial_path")

    def model_params(self) -> ModelParams:
        return ModelParams(omega0=self.omega0, Omega=self.Omega,
                           mu=self.mu, nu=self.nu, dim=self.dim)

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, complex):
                v = [v.real, v.imag]
            elif isinstance(v, tuple):
                v = list(v)
            d[f.name] = v
        return d


_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))
_FLOAT_KEYS = tuple(f.name for f in fields(RunConfig) if isinstance(f.default, float))


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a plain dict (e.g. parsed JSON), rejecting
    unknown keys and booleans, which no key takes (not even inside a list).
    alpha may be a number, a string like "0.9+0.3j", or a [re, im] pair;
    methods may be a list or a comma-separated string."""
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; known keys: {sorted(_CONFIG_KEYS)}")
    bools = sorted(k for k, v in data.items()
                   if any(isinstance(x, bool) for x in (v if isinstance(v, list) else [v])))
    if bools:
        raise ConfigError(f"config keys {bools} must not be booleans")
    clean = dict(data)
    if "alpha" in clean:
        clean["alpha"] = _parse_complex(clean["alpha"])
    if "methods" in clean:
        clean["methods"] = _parse_methods(clean["methods"])
    if "points" in clean and isinstance(clean["points"], float) and clean["points"].is_integer():
        clean["points"] = int(clean["points"])
    for key in _FLOAT_KEYS:
        if key in clean:
            try:
                clean[key] = float(clean[key])
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"config key {key} must be a number, "
                                  f"got {clean[key]!r}") from None
    return RunConfig(**clean)


def _parse_complex(v) -> complex:
    try:
        if isinstance(v, (int, float, complex)):
            return complex(v)
        if isinstance(v, str):
            return complex(v.replace(" ", ""))
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"cannot parse complex number from {v!r}")


def _parse_methods(v) -> tuple:
    """Method names from a comma-separated string or a list of such strings."""
    if isinstance(v, str):
        v = [v]
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"methods must be a list or comma-separated string, got {v!r}")
    return tuple(m.strip() for chunk in v for m in str(chunk).split(",") if m.strip())


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the file at path; `what` names the file in errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot parse {what} {path}: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


# ---------------------------------------------------------------------------
# initial states


def initial_state(cfg: RunConfig) -> BlockDensity:
    d = cfg.dim
    kind = InitialKind(cfg.initial)
    if kind is InitialKind.CUSTOM_FILE:
        return load_state_file(cfg.initial_path, d)
    z = np.zeros((d, d), dtype=complex)
    ket = coherent_state(cfg.alpha, d)
    coh = 0.5 * np.outer(ket, ket.conj())
    if kind is InitialKind.VACUUM_EXCITED:
        vac = np.zeros((d, d), dtype=complex)
        vac[0, 0] = 0.5
        return BlockDensity(vac, z, z, coh)
    return BlockDensity(coh, z, z, coh)


def load_state_file(path: str, dim: int) -> BlockDensity:
    """Read a block density matrix from JSON: {"dim": d, "blocks":
    {"rho00": [[[re, im], ...], ...], ...}} with all four blocks d x d."""
    data = _read_json(path, "state file")
    if "dim" not in data or not isinstance(data.get("blocks"), dict):
        raise ConfigError(f"state file {path} must contain 'dim' and a 'blocks' object")
    if data["dim"] != dim:
        raise ConfigError(f"state file dim {data['dim']} does not match configured "
                          f"dim {dim}")
    blocks = []
    for key in (f"rho{i}{j}" for i, j in BLOCK_KEYS):
        if key not in data["blocks"]:
            raise ConfigError(f"state file {path} missing block {key}")
        try:
            arr = np.asarray(data["blocks"][key], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"block {key} in {path} is not numeric") from None
        if arr.shape != (dim, dim, 2):
            raise ConfigError(
                f"block {key} in {path} has shape {arr.shape}, expected "
                f"({dim}, {dim}, 2) nested [re, im] entries")
        if not np.isfinite(arr).all():
            raise ConfigError(f"block {key} in {path} has non-finite entries")
        blocks.append(arr[..., 0] + 1j * arr[..., 1])
    return BlockDensity(*blocks)


# ---------------------------------------------------------------------------
# observables


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) tr |rho - sigma| of the hermitized difference."""
    diff = rho - sigma
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def observables(rho: BlockDensity, ops, oracle) -> ObservableRow:
    """The observables of rho.  ops = (a, N) are the dense ladder operators,
    built once per run; oracle = (state, full(), min_eig or None) is the
    oracle's at the same time.  The oracle's own state reuses its matrix and
    min_eig (solved here if None); its tdist_oracle is 0 without a solve."""
    a, N = ops
    oracle_rho, oracle_full, oracle_min_eig = oracle
    own = rho is oracle_rho
    osc = rho.rho00 + rho.rho11   # oscillator state, qubit traced out
    mean_a = complex(np.trace(osc @ a))
    full, min_eig = (oracle_full, oracle_min_eig) if own else (rho.full(), None)
    if min_eig is None:
        min_eig = float(np.linalg.eigvalsh(0.5 * (full + full.conj().T)).min())
    return ObservableRow(
        trace=float(full.trace().real),
        p0=float(np.trace(rho.rho00).real),
        p1=float(np.trace(rho.rho11).real),
        mean_n=float(np.trace(osc @ N).real),
        re_a=mean_a.real,
        im_a=mean_a.imag,
        tdist_oracle=0.0 if own else trace_distance(full, oracle_full),
        min_eig=min_eig,
    )


# ---------------------------------------------------------------------------
# trajectory runners


@contextmanager
def _count_truncation_warnings(method: str):
    """Fold the TruncationWarnings raised inside into one, which names the
    method and counts them; other warnings pass through unchanged."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        yield
    count = 0
    for w in caught:
        if issubclass(w.category, TruncationWarning):
            count += 1
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if count:
        warnings.warn(f"{method} raised {count} truncation warning"
                      f"{'s' if count > 1 else ''}: the top {GUARD_LEVELS} Fock levels "
                      f"hold more than {GUARD_TOL:.0e}; increase dim",
                      TruncationWarning, stacklevel=3)


def _single_shot(method: str, rho0: BlockDensity, ts, p: ModelParams, pad: int,
                 done: dict) -> list:
    """The split method's propagator applied once to rho0 at each time in ts,
    with no step bound.  Split3 is the commutator factor, guarded, on split2's
    states when done (the methods run so far) holds them."""
    if method == "split3" and "split2" in done:
        out = [commutator_step(rho, float(t), p, pad) for rho, t in zip(done["split2"], ts)]
        for rho in out:
            warn_on_guard_occupation(rho)
        return out
    return [propagate(rho0, float(t), p, method, step_bound=math.inf, pad=pad) for t in ts]


def _method_trajectory(method: str, cfg: RunConfig, p: ModelParams,
                       rho0: BlockDensity, ts: np.ndarray, done: dict) -> list:
    """The states of one method at ts; done maps the methods run so far to theirs."""
    if method in done:
        return done[method]
    if method == ORACLE_RK4:
        return oracle_trajectory(rho0, ts, p, OracleConfig(OracleMethod.RK4, cfg.rk4_dt))[0]
    if method == CLOSED_FORM:
        return [example_solution(cfg.alpha, float(t), p) for t in ts]
    if cfg.step_mode == "single-shot":
        # The factored propagator at each grid time, the mode the closed forms
        # describe.  Its error grows with t * rate; _note_raised_bound says so.
        return _single_shot(method, rho0, ts, p, cfg.pad, done)
    # stepping: compose short steps between grid points
    h_max = cfg.max_step_scale / p.rate
    out, cur = [rho0], rho0
    for i in range(1, len(ts)):
        seg = float(ts[i] - ts[i - 1])
        n = step_count(seg, h_max, f"{method} stepping")
        for _ in range(n):
            cur = propagate(cur, seg / n, p, method, step_bound=math.inf, pad=cfg.pad)
        out.append(cur)
    return out


def run_trajectory(cfg: RunConfig):
    """Compute the full observable table.  Returns (column names, rows).

    The TruncationWarnings of each method, and of the oracle grid as
    oracle-expm, come out as one warning per method with their count."""
    p = cfg.model_params()
    rho0 = initial_state(cfg)
    ts = np.linspace(0.0, cfg.t_max, cfg.points)
    with _count_truncation_warnings(ORACLE_EXPM):
        warn_on_guard_occupation(rho0)   # the oracle column's t = 0 state
        oracle_states, oracle_min_eigs = oracle_trajectory(rho0, ts, p)
    trajectories = {ORACLE_EXPM: oracle_states}
    for m in cfg.methods:
        with _count_truncation_warnings(m):
            trajectories[m] = _method_trajectory(m, cfg, p, rho0, ts, trajectories)

    columns = ["t"]
    for m in cfg.methods:
        prefix = m.replace("-", "_")
        columns.extend(f"{prefix}_{name}" for name in OBSERVABLE_NAMES)
    ops = (annihilation(p.dim), number(p.dim))
    rows = []
    for i, t in enumerate(ts):
        oracle = (oracle_states[i], oracle_states[i].full(), oracle_min_eigs[i])
        row = [float(t)]
        for m in cfg.methods:
            row.extend(observables(trajectories[m][i], ops, oracle).values())
        rows.append(row)
    return columns, rows


# ---------------------------------------------------------------------------
# convergence study


@dataclass(frozen=True)
class ConvergenceResult:
    h: tuple
    errors: dict           # method name -> tuple of trace distances
    slopes: dict           # method name -> float, or None when exact


def convergence_study(rho0: BlockDensity, p: ModelParams, h_list,
                      pad: int = DEFAULT_PAD) -> ConvergenceResult:
    """Single-step error of split2 and split3 versus step size.

    For each h split2 is applied once, and split3 is the commutator factor
    on that state; each is compared (trace distance) with the exact flow
    over the same h, from one oracle sweep over the sorted h.  The log-log
    slope estimates the local order (2 for split2, 3 for split3).  h_list
    must hold at least three positive values in geometric progression.
    When all errors sit at rounding level (< 1e-12) the slope is
    meaningless and is reported as None ("exact"), e.g. for Omega = 0 where
    the splitting is exact.
    TruncationWarnings come out as one per method, as in run_trajectory.
    """
    h = tuple(float(x) for x in h_list)
    if len(h) < 3:
        raise ConfigError(f"h_list needs at least 3 values, got {len(h)}")
    if any(not (x > 0 and math.isfinite(x)) for x in h):
        raise ConfigError(f"h_list values must be positive and finite: {h}")
    ratios = [h[i + 1] / h[i] for i in range(len(h) - 1)]
    if any(abs(r - ratios[0]) > 1e-6 * abs(ratios[0]) for r in ratios) \
            or abs(ratios[0] - 1.0) < 1e-9:
        raise ConfigError(f"h_list must be a geometric progression with ratio != 1: {h}")

    with _count_truncation_warnings(ORACLE_EXPM):
        states, _ = oracle_trajectory(rho0, [0.0, *sorted(h)], p)
    exact = {step: rho.full() for step, rho in zip(sorted(h), states[1:])}
    done = {}
    for name in ("split2", "split3"):
        with _count_truncation_warnings(name):
            done[name] = _single_shot(name, rho0, h, p, pad, done)
    errors = {name: tuple(trace_distance(rho.full(), exact[step]) for rho, step in zip(got, h))
              for name, got in done.items()}
    slopes = {name: None if max(errs) < 1e-12 else
              float(np.polyfit(np.log(np.asarray(h)), np.log(np.asarray(errs)), 1)[0])
              for name, errs in errors.items()}
    return ConvergenceResult(h=h, errors=errors, slopes=slopes)


# ---------------------------------------------------------------------------
# serialization


def _format_float(x: float) -> str:
    return f"{x:.16e}"


def render_csv(columns, rows, comments) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_float(x) for x in row))
    return "\n".join(lines) + "\n"


def render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)


def emit_plotscript(csv_path: str, script_path: str) -> None:
    """Write a gnuplot script that plots mean occupation and trace distance
    to the oracle for every method present in csv_path (by column name)."""
    if not os.path.exists(csv_path):
        raise FileNotFoundError(f"CSV file not found: {csv_path}")
    header = None
    with open(csv_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                header = line.strip()
                break
    if not header or "," not in header:
        raise ConfigError(f"{csv_path} has no CSV header row")
    columns = header.split(",")
    mean_cols = [c for c in columns if c.endswith("_mean_n")]
    dist_cols = [c for c in columns if c.endswith("_tdist_oracle")]
    if "t" not in columns or not mean_cols:
        raise ConfigError(f"{csv_path} does not look like a trajectory table")

    def series(cols, suffix):
        return ", \\\n    ".join(
            f"csvfile using 't':'{c}' with lines title '{c[:-len(suffix)].replace('_', '-')}'"
            for c in cols)

    lines = [
        "# gnuplot script (auto-generated); run: gnuplot <this file>",
        f"csvfile = '{csv_path}'",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set terminal pngcairo size 1100,800",
        f"set output '{os.path.splitext(script_path)[0]}.png'",
        "set multiplot layout 2,1",
        "set xlabel 't'",
        "set ylabel 'mean occupation'",
        "plot " + series(mean_cols, "_mean_n"),
        "set ylabel 'trace distance to oracle'",
        "set logscale y",
        "set format y '%.0e'",
        "plot " + series(dist_cols, "_tdist_oracle"),
        "unset multiplot",
    ]
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error becomes a ConfigError, so main reports it on one
        line and returns 2 instead of raising SystemExit."""
        raise ConfigError(message)


# A value that starts like a negative number.  argparse before Python 3.13
# takes such a token for an option unless it is a plain negative number, so
# `--alpha -0.7-0.7j` would lose its value.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list) -> list:
    """Rewrite `--opt -0.7-0.7j` as `--opt=-0.7-0.7j`."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if _NEGATIVE_VALUE.match(arg) and prev.startswith("--") and "=" not in prev:
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="dampedjc",
        description="Damped Jaynes-Cummings trajectories: split-operator "
                    "propagators checked against brute-force integration.")
    ap.add_argument("--config", metavar="PATH", help="JSON config file; CLI flags override it")
    ap.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    ap.add_argument("--format", choices=("csv", "json"))
    ap.add_argument("--method", action="append", metavar="NAME", dest="methods",
                    help=f"method to run (repeatable or comma-separated); "
                         f"choices: {', '.join(ALL_METHODS)}")
    ap.add_argument("--tmax", type=float, metavar="T", dest="t_max")
    ap.add_argument("--points", type=int, metavar="N")
    ap.add_argument("--dim", type=int, metavar="D", help="Fock-space cutoff")
    ap.add_argument("--alpha", metavar="Z",
                    help="coherent amplitude, e.g. 0.9+0.3j or -0.7-0.7j")
    ap.add_argument("--omega0", type=float, metavar="W")
    ap.add_argument("--Omega", type=float, metavar="W")
    ap.add_argument("--mu", type=float, metavar="R", help="decay rate (must exceed nu)")
    ap.add_argument("--nu", type=float, metavar="R", help="pump rate")
    ap.add_argument("--initial", choices=[k.value for k in InitialKind])
    ap.add_argument("--initial-file", metavar="PATH", dest="initial_path",
                    help="JSON state file for --initial custom-file")
    ap.add_argument("--step-mode", choices=("single-shot", "stepping"), dest="step_mode")
    ap.add_argument("--pad", type=int, metavar="N",
                    help="extra Fock levels for the split3 commutator factor")
    ap.add_argument("--rk4-dt", type=float, metavar="H", dest="rk4_dt")
    ap.add_argument("--study", choices=("convergence",))
    ap.add_argument("--h-list", metavar="H1,H2,...", dest="h_list",
                    help="step sizes for --study convergence (geometric, >= 3)")
    ap.add_argument("--plotscript", metavar="PATH",
                    help="also write a gnuplot script for the CSV given by --out")
    return ap


def _resolve_config(args) -> RunConfig:
    """The config file (if any) overridden by every flag that was given;
    flag dests that are RunConfig fields carry config values."""
    data = _read_json(args.config, "config file") if args.config else {}
    data.update({k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None})
    return config_from_dict(data)


def _run_study(cfg: RunConfig, h_list_arg: str | None) -> int:
    if not h_list_arg:
        raise ConfigError("--study convergence requires --h-list")
    try:
        h_list = [float(x) for x in h_list_arg.split(",") if x]
    except ValueError:
        raise ConfigError(f"cannot parse --h-list {h_list_arg!r}") from None
    p = cfg.model_params()
    rho0 = initial_state(cfg)
    with _truncation_warnings_as_lines():
        result = convergence_study(rho0, p, h_list, pad=cfg.pad)

    names = [o for o in result.errors]
    comments = [f"schema_version={SCHEMA_VERSION}", "study=convergence",
                "config=" + json.dumps(cfg.to_dict(), sort_keys=True)]
    for name in names:
        s = result.slopes[name]
        comments.append(f"slope_{name.replace('-', '_')}="
                        + ("exact" if s is None else _format_float(s)))
    if cfg.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "study": "convergence",
            "config": cfg.to_dict(),
            "h": list(result.h),
            "errors": {k: list(v) for k, v in result.errors.items()},
            "slopes": {k: ("exact" if v is None else v)
                       for k, v in result.slopes.items()},
        }
        _write_output(render_json(payload), cfg.out)
    else:
        columns = ["h"] + [f"{n.replace('-', '_')}_err" for n in names]
        rows = [[result.h[i]] + [result.errors[n][i] for n in names]
                for i in range(len(result.h))]
        _write_output(render_csv(columns, rows, comments), cfg.out)
    for name in names:
        s = result.slopes[name]
        print(f"{name}: slope " + ("exact" if s is None else f"{s:.3f}"),
              file=sys.stderr)
    return 0


@contextmanager
def _truncation_warnings_as_lines():
    """Print each TruncationWarning raised inside as one `warning:` line on
    stderr, in place of Python's two-line format; the filters in force still
    decide which are shown, and other warnings are shown as usual."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield
    finally:
        for w in caught:
            if issubclass(w.category, TruncationWarning):
                print(f"warning: {w.message}", file=sys.stderr)
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def _warn_unphysical(cfg: RunConfig, columns, rows) -> None:
    """One stderr line per method whose min_eig drops below -MIN_EIG_TOL."""
    hint = ("use --step-mode stepping" if cfg.step_mode == "single-shot"
            else "use a smaller max_step_scale")
    for m in cfg.methods:
        k = columns.index(f"{m.replace('-', '_')}_min_eig")
        worst = min(rows, key=lambda row: row[k])
        if worst[k] < -MIN_EIG_TOL:
            print(f"warning: {m} min_eig reaches {worst[k]:.3g} at t = {worst[0]:.6g} "
                  f"(unphysical state); {hint}", file=sys.stderr)


def _note_raised_bound(cfg: RunConfig) -> None:
    """One stderr line when single-shot mode lifts the step bound of the
    split methods above DEFAULT_STEP_BOUND (see _method_trajectory)."""
    reach = cfg.t_max * cfg.model_params().rate
    if (cfg.step_mode == "single-shot" and reach > DEFAULT_STEP_BOUND
            and any(m in SPLIT_METHODS for m in cfg.methods)):
        print(f"note: single-shot raises the step bound to {reach:.6g}; "
              f"split errors grow with t*rate, --step-mode stepping keeps each "
              f"step within {DEFAULT_STEP_BOUND:g}", file=sys.stderr)


def _run_trajectory(cfg: RunConfig, plotscript: str | None) -> int:
    if plotscript and (cfg.format != "csv" or cfg.out is None):
        raise ConfigError("--plotscript needs --out plus csv format")
    with _truncation_warnings_as_lines():
        columns, rows = run_trajectory(cfg)
    _note_raised_bound(cfg)
    _warn_unphysical(cfg, columns, rows)
    if cfg.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": cfg.to_dict(),
            "columns": columns,
            "rows": rows,
        }
        _write_output(render_json(payload), cfg.out)
    else:
        comments = [f"schema_version={SCHEMA_VERSION}",
                    "config=" + json.dumps(cfg.to_dict(), sort_keys=True)]
        _write_output(render_csv(columns, rows, comments), cfg.out)
    if plotscript:
        emit_plotscript(cfg.out, plotscript)
        print(f"wrote {plotscript}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_attach_negative_values(argv))
        cfg = _resolve_config(args)
        if args.study == "convergence":
            return _run_study(cfg, args.h_list)
        return _run_trajectory(cfg, args.plotscript)
    except DampedJCError as e:
        print(f"error: {e}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES.items() if isinstance(e, cls)), 2)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, MemoryError, OverflowError) as e:
        print(f"error: {type(e).__name__}: {e}".rstrip(": "), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
