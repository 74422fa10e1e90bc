import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

import dampedjc
from dampedjc import (
    ConfigError,
    DomainError,
    ModelParams,
    NumericalError,
    OracleConfig,
    OracleMethod,
    PropagatorOrder,
    RunConfig,
    StepError,
    TruncationError,
    TruncationWarning,
    annihilation,
    coherent_state,
    convergence_study,
    emit_plotscript,
    example_solution,
    number,
    propagate,
    run_trajectory,
)
from dampedjc import cli, oracle
from dampedjc.cli import (
    InitialKind,
    config_from_dict,
    initial_state,
    load_state_file,
    main,
    observables,
)
from dampedjc.superop import (build_generator, sparse_generator, step_count, vectorize_blocks,
                              warn_on_guard_occupation)


# fixtures here run deliberately small cutoffs to keep the suite fast, so the
# occupancy guard is allowed to murmur; precision claims live in the other
# test modules
pytestmark = pytest.mark.filterwarnings(
    "ignore::dampedjc.errors.TruncationWarning")


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return comments, header, np.array(rows)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_valid():
    cfg = RunConfig()
    p = cfg.model_params()
    assert isinstance(p, ModelParams)
    assert cfg.points >= 2 and cfg.t_max > 0 and cfg.methods


def test_config_from_dict_forms():
    cfg = config_from_dict({"alpha": "0.3+0.1j", "methods": "split2,oracle-expm",
                            "points": 5.0, "dim": 12.0})
    assert cfg.alpha == 0.3 + 0.1j
    assert cfg.methods == ("split2", "oracle-expm")
    assert (cfg.points, cfg.dim) == (5, 12)
    assert type(cfg.dim) is int
    assert config_from_dict({"alpha": [1.0, -0.5]}).alpha == 1.0 - 0.5j
    assert config_from_dict({"alpha": 0.7}).alpha == 0.7 + 0j
    assert config_from_dict({"methods": "split2, "}).methods == ("split2",)


def test_config_rejects_garbage():
    with pytest.raises(ConfigError):
        config_from_dict({"no_such_key": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"methods": ["warp-drive"]})
    with pytest.raises(ConfigError):
        config_from_dict({"format": "xml"})
    with pytest.raises(ConfigError):
        config_from_dict({"points": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"t_max": -1.0})
    with pytest.raises(ConfigError):
        config_from_dict({"alpha": "one-ish"})
    for alpha in ("nan", "inf", [0.5, float("nan")], [1, "x"], [1, None]):
        with pytest.raises(ConfigError):
            config_from_dict({"alpha": alpha})
    with pytest.raises(ConfigError):
        config_from_dict({"initial": "custom-file"})   # no path given
    with pytest.raises(ConfigError):
        # the closed-form column is tied to the two-component initial state
        config_from_dict({"methods": ["closed-form-example"],
                          "initial": "coherent-diagonal"})
    # values of the wrong JSON type: a number is not a path (open() took it
    # for a file descriptor), and a boolean is not a number
    for data in ({"out": 1}, {"out": 7}, {"initial": "custom-file", "initial_path": 3},
                 {"pad": True}, {"alpha": True}, {"t_max": True}, {"dim": True},
                 {"alpha": [True, 0]}):
        with pytest.raises(ConfigError):
            config_from_dict(data)
    for methods in ([], "", ",", [" "], ", "):
        with pytest.raises(ConfigError, match="at least one method is needed"):
            config_from_dict({"methods": methods})


def test_initial_states():
    cfg = config_from_dict({"dim": 12, "alpha": 0.6})
    rho = initial_state(cfg)
    assert rho.trace() == pytest.approx(1.0)
    assert rho.rho00[0, 0] == pytest.approx(0.5)
    assert np.abs(rho.rho01).max() == 0
    ket = coherent_state(0.6, 12)
    assert np.abs(rho.rho11 - 0.5 * np.outer(ket, ket.conj())).max() < 1e-14

    cfg2 = config_from_dict({"dim": 12, "alpha": 0.6, "initial": "coherent-diagonal"})
    rho2 = initial_state(cfg2)
    assert np.abs(rho2.rho00 - rho2.rho11).max() == 0
    assert rho2.trace() == pytest.approx(1.0)


def test_custom_state_file(tmp_path):
    d = 4
    rng = np.random.default_rng(41)
    blocks = {}
    for key in ("rho00", "rho01", "rho10", "rho11"):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks[key] = np.stack([m.real, m.imag], axis=-1).tolist()
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": d, "blocks": blocks}))
    rho = load_state_file(str(path), d)
    assert rho.dim == d
    assert rho.rho01[1, 2] == pytest.approx(blocks["rho01"][1][2][0]
                                            + 1j * blocks["rho01"][1][2][1])
    with pytest.raises(ConfigError):
        load_state_file(str(path), 5)   # dim mismatch
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": d, "blocks": {"rho00": [[0.0]]}}))
    with pytest.raises(ConfigError):
        load_state_file(str(bad), d)
    # a JSON NaN or Infinity entry is a config error naming its block, not a
    # numerical failure of the first propagation
    for value in (float("nan"), float("inf")):
        blocks["rho10"][2][1][1] = value
        bad.write_text(json.dumps({"dim": d, "blocks": blocks}))
        with pytest.raises(ConfigError, match="block rho10 .* non-finite"):
            load_state_file(str(bad), d)


def test_main_refuses_a_state_file_that_is_not_a_density_matrix(tmp_path, capsys):
    # the file's state is checked before any propagation, with the oracle's
    # tolerance: a defect is a config error (exit 2) that names it, not an
    # oracle failure (exit 4) on the first propagated state
    d = 6

    def diag(*entries):
        return np.diag(np.array(entries + (0.0,) * (d - len(entries)), dtype=complex))

    zero = np.zeros((d, d), dtype=complex)
    cases = {
        "hermiticity defect 4.000e-01": (diag(0.5), diag(0.4), zero, diag(0.5)),
        "negativity 5.000e-01": (diag(1.5), zero, zero, diag(-0.5)),
        "trace deviation 1.000e+00": (diag(1.0), zero, zero, diag(1.0)),
        None: (diag(0.5), zero, zero, diag(0.5)),
    }
    path = tmp_path / "state.json"
    for defect, blocks in cases.items():
        path.write_text(json.dumps({"dim": d, "blocks": {
            key: np.stack([m.real, m.imag], axis=-1).tolist()
            for key, m in zip(("rho00", "rho01", "rho10", "rho11"), blocks)}}))
        code = main(["--initial", "custom-file", "--initial-file", str(path), "--dim", str(d),
                     "--alpha", "0", "--points", "3", "--tmax", "0.5"])
        err = capsys.readouterr().err
        if defect is None:
            assert code == 0, err
            continue
        assert code == 2
        assert err == (f"error: state file {path} is not a density matrix: {defect} "
                       f"(tolerance 1.0e-06)\n")


# ---------------------------------------------------------------------------
# observables and trajectories


def test_observable_row_against_known_state():
    cfg = config_from_dict({"dim": 10, "alpha": 0.5})
    rho = initial_state(cfg)
    row = observables(rho, (annihilation(10), number(10)), (rho, rho.full(), None))
    assert row.trace == pytest.approx(1.0)
    assert row.p0 == pytest.approx(0.5)
    assert row.p1 == pytest.approx(0.5)
    # oscillator moments of (|0><0| + |alpha><alpha|)/2
    assert row.mean_n == pytest.approx(0.5 * 0.25, abs=1e-10)
    assert row.re_a == pytest.approx(0.5 * 0.5, abs=1e-10)
    assert row.im_a == pytest.approx(0.0, abs=1e-12)
    assert row.tdist_oracle == pytest.approx(0.0, abs=1e-14)
    assert row.min_eig > -1e-12


def test_run_trajectory_columns_and_t0():
    cfg = config_from_dict({"dim": 10, "points": 4, "t_max": 0.9, "alpha": 0.4,
                            "methods": ["oracle-expm", "split2"]})
    columns, rows = run_trajectory(cfg)
    assert columns[0] == "t"
    assert len(columns) == 1 + 2 * 8
    assert "split2_tdist_oracle" in columns
    assert len(rows) == 4
    # at t=0 every method reports the initial state exactly
    t0 = dict(zip(columns, rows[0]))
    assert t0["t"] == 0.0
    assert t0["oracle_expm_trace"] == pytest.approx(1.0, abs=1e-12)
    assert t0["split2_tdist_oracle"] < 1e-13


def test_oracle_trajectory_matches_dense_expm_powers():
    # independent route: powers of one dense step matrix of the generator
    p = ModelParams(omega0=1.0, Omega=1.0, mu=0.4, nu=0.1, dim=10)
    rho0 = initial_state(config_from_dict({"dim": 10, "alpha": 0.6 - 0.3j}))
    ts = np.linspace(0.0, 2.0, 21)
    states, _ = oracle.oracle_trajectory(rho0, ts, p)
    assert len(states) == len(ts)
    U = expm(float(ts[1]) * build_generator(p))
    vec = vectorize_blocks(rho0)
    for state in states:
        assert np.abs(vectorize_blocks(state) - vec).max() <= 1e-13
        vec = U @ vec


def test_oracle_trajectory_builds_no_dense_generator():
    # the dense generator alone would take 4 (40^2)^2 * 16 B = 655 MB
    cfg = config_from_dict({"dim": 40, "methods": ["oracle-expm"]})
    tracemalloc.start()
    try:
        _, rows = run_trajectory(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == cfg.points
    assert peak < 64 * 2**20


def test_run_memory_does_not_grow_with_points():
    # one pass over the grid holds one state per method: the README run at
    # 401 points peaks at about 2 MiB, where holding every state took 44 MiB
    cfg = RunConfig(points=401)
    tracemalloc.start()
    try:
        _, rows = run_trajectory(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 401
    assert peak < 8 * 2**20


def test_oracle_rk4_column_is_the_rk4_trajectory():
    # the oracle-rk4 column holds the observables of the RK4 oracle grid,
    # measured against the DENSE_EXPM grid like every other column
    cfg = config_from_dict({"dim": 8, "t_max": 1.0, "points": 5, "alpha": 0.3,
                            "rk4_dt": 0.05, "methods": ["oracle-rk4"]})
    p, rho0 = cfg.model_params(), initial_state(cfg)
    ts = np.linspace(0.0, cfg.t_max, cfg.points)
    rk4, _ = oracle.oracle_trajectory(rho0, ts, p, OracleConfig(OracleMethod.RK4, cfg.rk4_dt))
    exact, min_eigs = oracle.oracle_trajectory(rho0, ts, p)
    _, rows = run_trajectory(cfg)
    ops = (annihilation(p.dim), number(p.dim))
    for row, state, ref, min_eig in zip(rows, rk4, exact, min_eigs):
        assert row[1:] == list(observables(state, ops, (ref, ref.full(), min_eig)).values())


def test_split2_tracks_oracle_closely():
    # trace distance to the oracle stays small but visible at moderate times
    cfg = config_from_dict({"dim": 14, "points": 5, "t_max": 2.0, "alpha": 0.7,
                            "methods": ["split2"]})
    columns, rows = run_trajectory(cfg)
    dist = [r[columns.index("split2_tdist_oracle")] for r in rows]
    assert dist[0] < 1e-13
    assert all(d < 0.2 for d in dist)
    assert max(d for d in dist) > 1e-4   # single-shot at t~2 has real error


def test_splitting_exact_at_zero_coupling():
    cfg = config_from_dict({"dim": 16, "points": 5, "t_max": 2.0, "alpha": 0.5,
                            "Omega": 0.0, "methods": ["split2", "split3"]})
    columns, rows = run_trajectory(cfg)
    for name in ("split2_tdist_oracle", "split3_tdist_oracle"):
        col = [r[columns.index(name)] for r in rows]
        assert all(d < 1e-9 for d in col), (name, col)


def test_stepping_mode_beats_single_shot_at_long_times():
    base = {"dim": 12, "points": 3, "t_max": 3.0, "alpha": 0.6,
            "methods": ["split2"]}
    _, rows_single = run_trajectory(config_from_dict(base))
    _, rows_stepped = run_trajectory(config_from_dict({**base, "step_mode": "stepping"}))
    # column 7 is split2_tdist_oracle (t + 6 observables before it)
    cols, _ = run_trajectory(config_from_dict({**base, "points": 2}))
    k = cols.index("split2_tdist_oracle")
    assert rows_stepped[-1][k] < rows_single[-1][k]


def test_single_shot_split3_reuses_split2_exactly(monkeypatch, capsys):
    # single-shot split3 is the commutator factor on the split2 state of the
    # same t: every state equals propagate's bit for bit, and the guard
    # warnings counted per method are what propagate gives, with none from an
    # intermediate split2 state
    seen = []
    real = cli.observables
    monkeypatch.setattr(cli, "observables",
                        lambda rho, *a, **k: seen.append(rho) or real(rho, *a, **k))
    argv = ["--dim", "10", "--tmax", "1.0", "--points", "5", "--alpha=-0.3+0.2j"]
    counts = {"split3": [3, 2], "diagonal-only,split3": [3, 3, 2], "split2,split3": [3, 2, 2]}
    for methods, want_counts in counts.items():
        cfg = config_from_dict({"dim": 10, "t_max": 1.0, "points": 5, "alpha": [-0.3, 0.2],
                                "methods": methods})
        p, rho0 = cfg.model_params(), initial_state(cfg)
        seen.clear()
        run_trajectory(cfg)
        ts = np.linspace(0.0, cfg.t_max, cfg.points)
        for k, rho in enumerate(seen):   # rows in t order, methods within a row
            t, method = ts[k // len(cfg.methods)], cfg.methods[k % len(cfg.methods)]
            want = propagate(rho0, float(t), p, method, step_bound=np.inf)
            assert np.array_equal(rho.full(), want.full()), (methods, t, method)
        with warnings.catch_warnings():
            warnings.simplefilter("always", TruncationWarning)
            capsys.readouterr()
            assert main(argv + ["--method", f"oracle-expm,{methods}"]) == 0
        counted = [line.split(" raised ")[1].split()[0]
                   for line in capsys.readouterr().err.splitlines() if " raised " in line]
        assert counted == [str(n) for n in want_counts], methods


@pytest.mark.parametrize("points", [2, cli.BLOCK, cli.BLOCK + 1, 2 * cli.BLOCK + 3])
@pytest.mark.parametrize("methods, step_mode", [("split2,split3", "single-shot"),
                                                ("split3,split2,oracle-expm", "single-shot"),
                                                (",".join(cli.ALL_METHODS), "stepping")])
def test_blocked_pass_matches_the_states_of_each_grid_time(points, methods, step_mode):
    # across block boundaries every row holds the observables of the oracle's
    # grid and of each method's own states at that time (propagate at t, or
    # composed steps), and each method's TruncationWarnings are counted as
    # those calls raise them
    cfg = config_from_dict({"dim": 8, "t_max": 1.5, "points": points, "alpha": [-0.3, 0.2],
                            "methods": methods, "step_mode": step_mode, "rk4_dt": 0.01})
    p, rho0 = cfg.model_params(), initial_state(cfg)
    ts = np.linspace(0.0, cfg.t_max, cfg.points)

    def counted(make):   # make()'s result and the TruncationWarnings it raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return make(), sum(issubclass(w.category, TruncationWarning) for w in caught)

    def stepped(method):
        out = [rho0]
        for seg in map(float, np.diff(ts)):
            n = step_count(seg, cfg.max_step_scale / p.rate, "")
            out.append(out[-1])
            for _ in range(n):
                out[-1] = propagate(out[-1], seg / n, p, method, step_bound=np.inf)
        return out

    refs = {
        "oracle-expm": lambda: (warn_on_guard_occupation(rho0),
                                oracle.oracle_trajectory(rho0, ts, p))[1],
        "oracle-rk4": lambda: oracle.oracle_trajectory(
            rho0, ts, p, OracleConfig(OracleMethod.RK4, cfg.rk4_dt))[0],
        "closed-form-example": lambda: [example_solution(cfg.alpha, float(t), p) for t in ts]}
    states, want_counts = {}, {}
    for m in ("oracle-expm", *cfg.methods):
        make = refs.get(m) or (lambda m=m: stepped(m) if step_mode == "stepping" else
                               [propagate(rho0, float(t), p, m, step_bound=np.inf) for t in ts])
        states[m], want_counts[m] = counted(make)
    exact, min_eigs = states["oracle-expm"]
    states["oracle-expm"] = exact
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, rows = run_trajectory(cfg)
    got_counts = {str(w.message).split(" raised ")[0]: int(str(w.message).split()[2])
                  for w in caught if " raised " in str(w.message)}
    assert got_counts == {m: n for m, n in want_counts.items() if n}
    assert sum(want_counts.values()) > 0   # the guard fires here
    ops = (annihilation(p.dim), number(p.dim))
    assert len(rows) == points
    for i, row in enumerate(rows):
        ref = (exact[i], exact[i].full(), min_eigs[i])
        assert row == [float(ts[i])] + [x for m in cfg.methods
                                        for x in observables(states[m][i], ops, ref).values()]


def test_run_solves_one_eigenproblem_per_state(monkeypatch):
    # README defaults: the oracle's vetting solves its 40 states after t = 0,
    # whose rows take min_eig from it; the t = 0 row solves its own, and the
    # 2 x 41 split rows one for min_eig and one for tdist_oracle each;
    # solving the oracle rows' min_eig again would make 245
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or real(*a, **k))
    cfg = RunConfig()
    columns, rows = run_trajectory(cfg)
    assert len(calls) == 40 + 1 + 2 * 41 * 2 == 205
    monkeypatch.undo()
    states, _ = oracle.oracle_trajectory(initial_state(cfg), [r[0] for r in rows],
                                         cfg.model_params())
    k = columns.index("oracle_expm_min_eig")
    assert [r[k] for r in rows] == [oracle.diagnostics(s).min_eigenvalue for s in states]


def test_closed_form_example_column_matches_split2():
    cfg = config_from_dict({"dim": 24, "points": 5, "t_max": 2.0, "alpha": 1.0,
                            "mu": 0.2, "nu": 0.1,
                            "methods": ["split2", "closed-form-example"]})
    columns, rows = run_trajectory(cfg)
    for name in ("trace", "p0", "p1", "mean_n", "re_a", "im_a"):
        a = np.array([r[columns.index(f"split2_{name}")] for r in rows])
        b = np.array([r[columns.index(f"closed_form_example_{name}")] for r in rows])
        assert np.abs(a - b).max() < 1e-10, name


# ---------------------------------------------------------------------------
# convergence study


def test_convergence_study_slopes():
    cfg = config_from_dict({"dim": 10, "alpha": 0.6})
    rho0 = initial_state(cfg)
    res = convergence_study(rho0, cfg.model_params(), [0.32, 0.16, 0.08, 0.04])
    assert abs(res.slopes["split2"] - 2) < 0.3
    assert abs(res.slopes["split3"] - 3) < 0.3
    for errs in res.errors.values():
        assert all(a > b for a, b in zip(errs, errs[1:]))   # monotone in h


def test_convergence_study_exact_when_trivial():
    cfg = config_from_dict({"dim": 12, "alpha": 0.2, "Omega": 0.0})
    rho0 = initial_state(cfg)
    res = convergence_study(rho0, cfg.model_params(), [0.2, 0.1, 0.05])
    assert res.slopes["split2"] is None
    assert res.slopes["split3"] is None
    assert max(max(e) for e in res.errors.values()) < 1e-12


def test_convergence_study_validates_h_list():
    cfg = config_from_dict({"dim": 8, "alpha": 0.4})
    rho0 = initial_state(cfg)
    p = cfg.model_params()
    with pytest.raises(ConfigError):
        convergence_study(rho0, p, [0.2, 0.1])                 # too few
    with pytest.raises(ConfigError):
        convergence_study(rho0, p, [0.2, 0.1, 0.07])           # not geometric
    with pytest.raises(ConfigError):
        convergence_study(rho0, p, [0.2, -0.1, 0.05])


# ---------------------------------------------------------------------------
# CLI entry point


def run_main(tmp_path, *extra):
    out = tmp_path / "out.csv"
    code = main(["--dim", "10", "--points", "3", "--tmax", "1.0", "--alpha", "0.4",
                 "--method", "oracle-expm,split2", "--out", str(out), *extra])
    return code, out


def test_main_writes_csv(tmp_path):
    code, out = run_main(tmp_path)
    assert code == 0
    comments, header, rows = read_csv(out)
    assert comments[0] == "# schema_version=1"
    assert comments[1].startswith("# config=")
    embedded = json.loads(comments[1][len("# config="):])
    assert embedded["dim"] == 10
    assert embedded["methods"] == ["oracle-expm", "split2"]
    assert header[0] == "t"
    assert rows.shape == (3, 17)
    # 17 significant digits, scientific notation
    with open(out) as fh:
        for line in fh:
            if not line.startswith("#") and not line.startswith("t,"):
                first = line.split(",")[1]
                assert "e" in first and len(first.split("e")[0].replace("-", "")) == 18


def test_main_deterministic_output(tmp_path):
    code1, out = run_main(tmp_path)
    first = out.read_bytes()
    code2, out = run_main(tmp_path)
    assert code1 == code2 == 0
    assert out.read_bytes() == first


def test_main_refuses_oracle_time_over_substep_budget(tmp_path, capsys):
    # a mistyped --tmax used to run the oracle for hours; now its Taylor
    # action refuses the schedule up front: exit 4 and one `error:` line
    start = time.perf_counter()
    assert main(["--dim", "2", "--alpha", "0", "--tmax", "1e7", "--points", "2",
                 "--out", str(tmp_path / "x.csv")]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "oracle" in err and "1e+07" in err and "substeps" in err


def test_main_refuses_stepping_schedule_over_budget(tmp_path, capsys, monkeypatch):
    # max_step_scale = 1e-300 asks for 5e299 steps per grid interval, a loop
    # that never ended: refused against TAYLOR_MAX_SUBSTEPS before the first
    # step, with exit 4 and one `error:` line
    steps = []
    monkeypatch.setattr(cli, "propagate", lambda *args, **kw: steps.append(args))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"step_mode": "stepping", "max_step_scale": 1e-300}))
    assert main(["--config", str(config), "--dim", "10", "--alpha", "0", "--tmax", "1",
                 "--points", "3", "--method", "split2",
                 "--out", str(tmp_path / "x.csv")]) == 4
    assert steps == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "split2 stepping needs 5e+299 steps" in err and "100000 allowed" in err


def test_main_json_format(tmp_path):
    out = tmp_path / "out.json"
    code = main(["--dim", "8", "--alpha", "0.4", "--points", "3", "--tmax", "0.5",
                 "--method", "split2", "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == 1
    assert data["columns"][0] == "t"
    assert len(data["rows"]) == 3
    assert data["config"]["dim"] == 8


def test_main_reads_config_file(tmp_path):
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "traj.csv"
    cfg_path.write_text(json.dumps({"dim": 12, "points": 3, "t_max": 0.4,
                                    "methods": ["split3"], "alpha": [0.4, 0.1]}))
    code = main(["--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert "split3_mean_n" in header
    # CLI flag overrides file value
    code = main(["--config", str(cfg_path), "--points", "4", "--out", str(out)])
    assert code == 0
    assert read_csv(out)[2].shape[0] == 4


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "x.csv"
    # bad physics: mu <= nu
    assert main(["--mu", "0.1", "--nu", "0.5", "--out", str(out)]) == 2
    # unknown method
    assert main(["--method", "nope", "--out", str(out)]) == 2
    # missing config file
    assert main(["--config", str(tmp_path / "none.json")]) == 2
    # malformed config file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2
    # config file whose alpha pair is not numeric
    bad_alpha = tmp_path / "alpha.json"
    bad_alpha.write_text(json.dumps({"alpha": [1, "x"]}))
    assert main(["--config", str(bad_alpha)]) == 2
    # a cutoff too large to index is one error line, before any work
    capsys.readouterr()
    assert main(["--dim", str(2 ** 63), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dim must be <= ") and err.count("\n") == 1
    # coherent state does not fit the requested cutoff, also where |alpha|^2
    # overflows a float: one line that names alpha
    assert main(["--dim", "8", "--alpha", "2.0", "--points", "3",
                 "--out", str(out)]) == 3
    capsys.readouterr()
    assert main(["--alpha", "1e200", "--dim", "8", "--points", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: coherent state alpha=(1e+200+0j) needs more than dim=8 levels")
    assert err.count("\n") == 1
    # usage errors and non-finite alpha are reported, not raised
    assert main(["--bogus"]) == 2
    assert main(["--dim", "x"]) == 2
    assert main(["--alpha", "nan", "--dim", "8", "--out", str(out)]) == 2
    # config values of the wrong JSON type are one error line, before any work
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "initial_state", lambda *a: pytest.fail("work started"))
        for data in ({"out": 1}, {"out": 7}, {"initial": "custom-file", "initial_path": 3},
                     {"pad": True}, {"alpha": True}, {"t_max": True}, {"dim": 12.5}):
            bad.write_text(json.dumps(data))
            assert main(["--config", str(bad)]) == 2, data
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: "), data
            assert captured.err.count("\n") == 1, data
        assert main(["--method", ""]) == 2
        assert capsys.readouterr().err.startswith("error: at least one method is needed")
    # closed form where G is 0: at a t > 0 so tiny that G underflows, and at nu = 0
    for extra in (["--tmax", "5e-324"], ["--nu", "0"]):
        assert main(["--dim", "8", "--points", "2", "--method", "split2,closed-form-example",
                     "--alpha", "0.1", "--out", str(out), *extra]) == 0, extra
        _, header, rows = read_csv(out)
        closed = [i for i, name in enumerate(header) if name.startswith("closed_form_example_")]
        split2 = [header.index(header[i].replace("closed_form_example_", "split2_"))
                  for i in closed]
        assert closed and np.abs(rows[:, closed] - rows[:, split2]).max() <= 1e-13, extra
    # t so large that the oracle's action would need too many substeps
    capsys.readouterr()
    assert main(["--dim", "16", "--tmax", "1e200", "--points", "2",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "oracle" in err and "1e+200" in err
    # the same at dim 2, the smallest generator
    assert main(["--dim", "2", "--alpha", "0", "--tmax", "1e100", "--points", "2",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "oracle" in err
    # mu = 1e300 asks for about 2.25e300 substeps: 17 digits, not all 301 of them
    assert main(["--dim", "10", "--points", "3", "--mu", "1e300", "--alpha", "0.3"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: oracle cannot step to t = 1: action needs 2.25")
    assert err.count("\n") == 1 and len(err) < 200
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_main_rejects_a_pad_setting(tmp_path, capsys, monkeypatch):
    # the split3 factor's enlarged cutoff is fixed in zassenhaus: neither a
    # config key nor a flag sets it, and either is one error line, before any work
    monkeypatch.setattr(cli, "initial_state", lambda *a: pytest.fail("work started"))
    config = tmp_path / "pad.json"
    config.write_text(json.dumps({"pad": 8}))
    for argv in (["--config", str(config)], ["--pad", "8"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert captured.err.count("\n") == 1, argv


def test_python_m_dampedjc_runs_the_cli_quietly():
    src = str(Path(dampedjc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "dampedjc", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: dampedjc")
    assert done.stderr == ""


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("eig did not converge"),
                                   MemoryError()])
def test_main_maps_linalg_and_memory_errors(tmp_path, monkeypatch, capsys, error):
    def fail(cfg):
        raise error
    monkeypatch.setattr(cli, "run_trajectory", fail)
    assert main(["--dim", "8", "--out", str(tmp_path / "x.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_rejects_malformed_json_files(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"dim": 8, "alpha": "\xe9"}')
    assert main(["--config", str(not_utf8)]) == 2
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dim": 4, "blocks": 5}))
    assert main(["--initial", "custom-file", "--initial-file", str(state),
                 "--dim", "4", "--points", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "Traceback" not in err


@pytest.mark.parametrize("error, code", [(TruncationError("x"), 3),
                                         (NumericalError("x"), 4),
                                         (StepError("x"), 4),
                                         (DomainError("x"), 2)])
def test_main_maps_package_errors(tmp_path, monkeypatch, capsys, error, code):
    def fail(cfg):
        raise error
    monkeypatch.setattr(cli, "run_trajectory", fail)
    assert main(["--dim", "8", "--out", str(tmp_path / "x.csv")]) == code
    assert capsys.readouterr().err == "error: x\n"


def test_main_vets_the_oracle_grid(tmp_path, monkeypatch, capsys):
    # a generator that is not trace-preserving must stop the run (exit 4)
    def leaky(p):
        G = sparse_generator(p)
        return G + 0.5 * sp.identity(G.shape[0], format="csr")
    monkeypatch.setattr(oracle, "sparse_generator", leaky)
    code, out = run_main(tmp_path)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: oracle result fails") and err.count("\n") == 1
    assert not out.exists()


def test_main_names_an_undersized_cutoff_when_the_oracle_fails(capsys):
    # at dims 3 to 5 the pump leaks trace through the top level past the
    # oracle's tolerance; the one error line says the guard levels are full
    for d, occupation in ((3, "1.000e+00"), (4, "5.163e-02"), (5, "1.027e-02")):
        assert main(["--dim", str(d), "--alpha", "0", "--points", "3", "--tmax", "0.5"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: oracle result fails consistency checks: trace drift ")
        assert err.endswith(f"; top 3 Fock levels hold occupation {occupation}, "
                            f"increase dim\n")
        assert err.count("\n") == 1


def test_parser_dests_are_config_fields():
    # flags reach RunConfig by dest name, so a flag whose dest is not a
    # RunConfig field would be dropped without notice
    config_fields = {f.name for f in dataclasses.fields(RunConfig)}
    dests = {action.dest for action in cli._build_parser()._actions}
    assert dests - config_fields == {"help", "config", "study", "h_list", "plotscript"}


def test_main_negative_alpha_spellings(tmp_path, capsys):
    out = tmp_path / "out.csv"
    outs = []
    for spelling in (["--alpha", "-0.72-0.70j"], ["--alpha=-0.72-0.70j"]):
        assert main(["--dim", "16", "--points", "3", "--tmax", "0.5",
                     "--method", "split2", *spelling, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert b'"alpha": [-0.72, -0.7]' in outs[0]


def test_main_convergence_study(tmp_path):
    out = tmp_path / "study.csv"
    code = main(["--study", "convergence", "--h-list", "0.2,0.1,0.05",
                 "--dim", "8", "--alpha", "0.4", "--out", str(out)])
    assert code == 0
    comments, header, rows = read_csv(out)
    assert "# study=convergence" in comments
    assert header == ["h", "split2_err", "split3_err"]
    assert rows.shape == (3, 3)
    slopes = [c for c in comments if c.startswith("# slope_")]
    assert len(slopes) == 2
    # study without h list is a usage error
    assert main(["--study", "convergence", "--out", str(out)]) == 2


def test_main_convergence_study_refuses_settings_it_ignores(tmp_path, capsys, monkeypatch):
    # the study reads neither the method list nor the grid: non-default
    # values are one error line that names them, before any work, where they
    # would otherwise be embedded in the output's config
    monkeypatch.setattr(cli, "initial_state", lambda *a: pytest.fail("work started"))
    assert main(["--study", "convergence", "--h-list", "0.2,0.1,0.05", "--method", "oracle-rk4",
                 "--step-mode", "stepping", "--points", "99", "--tmax", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: --study convergence ignores config keys "
                                   "['methods', 'points', 'step_mode', 't_max']")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"max_step_scale": 0.05, "rk4_dt": 0.01}))
    assert main(["--study", "convergence", "--h-list", "0.2,0.1,0.05",
                 "--config", str(config)]) == 2
    assert "['max_step_scale', 'rk4_dt']" in capsys.readouterr().err


def test_convergence_study_counts_truncation_warnings_per_method(capsys):
    # one counted line per method; split3 is guarded on its own states only,
    # not again on the split2 states it is built from
    with warnings.catch_warnings():
        warnings.simplefilter("always", TruncationWarning)
        assert main(["--study", "convergence", "--h-list", "0.16,0.08,0.04",
                     "--dim", "8", "--alpha", "0.3"]) == 0
    counted = [line.split(": ")[1] for line in capsys.readouterr().err.splitlines()
               if " raised " in line]
    assert counted == [f"{m} raised 3 truncation warnings"
                       for m in ("oracle-expm", "split2", "split3")]


def test_stepping_counts_truncation_warnings_per_method(capsys):
    # stepping and RK4 states are counted to their own method, in the order
    # oracle-expm first and then the configured methods
    with warnings.catch_warnings():
        warnings.simplefilter("always", TruncationWarning)
        assert main(["--step-mode", "stepping", "--dim", "10", "--tmax", "1.0", "--points",
                     "5", "--alpha=-0.3+0.2j", "--method", "oracle-rk4,split2,split3"]) == 0
    counted = [line.split(": ")[1] for line in capsys.readouterr().err.splitlines()
               if " raised " in line]
    assert counted == [f"{m} raised {n} truncation warnings"
                       for m, n in (("oracle-expm", 3), ("oracle-rk4", 3), ("split2", 7),
                                    ("split3", 7))]


def test_emit_plotscript(tmp_path):
    code, out = run_main(tmp_path)
    assert code == 0
    script = tmp_path / "plot.gp"
    emit_plotscript(str(out), str(script))
    text = script.read_text()
    assert "set datafile separator ','" in text
    assert "'split2_mean_n'" in text
    assert "'oracle_expm_tdist_oracle'" in text
    # idempotent re-emission
    emit_plotscript(str(out), str(script))
    assert script.read_text() == text
    with pytest.raises(FileNotFoundError):
        emit_plotscript(str(tmp_path / "missing.csv"), str(script))
    # a quote in a path is doubled, gnuplot's escape inside '...'
    (tmp_path / "q'dir").mkdir()
    quoted = tmp_path / "q'dir" / "it's.csv"
    quoted.write_text(out.read_text())
    emit_plotscript(str(quoted), str(tmp_path / "q'dir" / "it's.gp"))
    lines = (tmp_path / "q'dir" / "it's.gp").read_text().splitlines()
    assert f"csvfile = '{tmp_path}/q''dir/it''s.csv'" in lines
    assert f"set output '{tmp_path}/q''dir/it''s.png'" in lines


def test_main_plotscript_flag(tmp_path):
    out = tmp_path / "t.csv"
    gp = tmp_path / "t.gp"
    code = main(["--dim", "8", "--alpha", "0.4", "--points", "3", "--tmax", "0.5",
                 "--method", "split2", "--out", str(out), "--plotscript", str(gp)])
    assert code == 0
    assert gp.exists()
    # plotscript without --out cannot work
    assert main(["--dim", "8", "--alpha", "0.4", "--points", "3",
                 "--method", "split2", "--plotscript", str(gp)]) == 2


def test_main_warns_on_unphysical_states(monkeypatch, capsys):
    # single-shot split3 reaches a negative eigenvalue by t = 2: the run
    # says so in one stderr line and prints the same CSV as without the check
    argv = ["--dim", "10", "--alpha", "0.6", "--points", "3", "--tmax", "2",
            "--method", "oracle-expm,split2,split3"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    warned = [line for line in captured.err.splitlines() if line.startswith("warning:")]
    assert len(warned) == 1, captured.err
    assert warned[0].startswith("warning: split3 min_eig reaches -")
    assert warned[0].endswith("; use --step-mode stepping")
    monkeypatch.setattr(cli, "_warn_unphysical", lambda *args: None)
    assert main(argv) == 0
    unchecked = capsys.readouterr()
    assert "warning:" not in unchecked.err
    assert unchecked.out == captured.out


def test_main_notes_raised_step_bound(monkeypatch, capsys):
    # single-shot to t_max * rate = 2 lifts the split step bound above 1:
    # one note on stderr, and stdout is what a run without the note prints
    base = ["--dim", "8", "--alpha", "0.4", "--points", "3"]
    argv = base + ["--tmax", "2", "--method", "split2"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    notes = [line for line in captured.err.splitlines() if line.startswith("note:")]
    assert len(notes) == 1, captured.err
    assert notes[0].startswith("note: single-shot raises the step bound to 2;")
    monkeypatch.setattr(cli, "_note_raised_bound", lambda *args: None)
    assert main(argv) == 0
    unnoted = capsys.readouterr()
    assert "note:" not in unnoted.err
    assert unnoted.out == captured.out
    monkeypatch.undo()
    # no note within the default bound, in stepping mode or without a split method
    for extra in (["--tmax", "1", "--method", "split2"],
                  ["--tmax", "2", "--method", "split2", "--step-mode", "stepping"],
                  ["--tmax", "2", "--method", "oracle-expm,oracle-rk4"]):
        assert main(base + extra) == 0
        assert "note:" not in capsys.readouterr().err, extra


def test_propagator_order_values():
    assert {o.value for o in PropagatorOrder} == {"diagonal-only", "split2", "split3"}
    assert {k.value for k in InitialKind} == {"vacuum-excited", "coherent-diagonal",
                                              "custom-file"}


def test_main_prints_one_line_per_method_for_truncation_warnings():
    # states that fill the guard levels: each method's TruncationWarnings
    # become one counted `warning:` line, with no Python-format pair, and
    # stdout is what the run prints with warnings off
    argv = ["--dim", "10", "--tmax", "1.0", "--points", "5", "--alpha=-0.3+0.2j"]
    script = "import sys; from dampedjc.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(dampedjc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    shown, quiet = (subprocess.run([sys.executable, *flags, "-c", script, *argv],
                                   capture_output=True, text=True, env=env, timeout=120)
                    for flags in ([], ["-W", "ignore"]))
    assert shown.returncode == quiet.returncode == 0
    assert shown.stdout == quiet.stdout
    lines = shown.stderr.splitlines()
    assert all(line.startswith(("warning: ", "note: ")) for line in lines), shown.stderr
    counted = [line for line in lines if "truncation warning" in line]
    assert [line.split(":")[1] for line in counted] == [
        " oracle-expm raised 3 truncation warnings",
        " split2 raised 2 truncation warnings",
        " split3 raised 2 truncation warnings"]
    assert "truncation warning" not in quiet.stderr
    # a library caller gets one TruncationWarning per method, and propagate
    # itself still warns on every call
    cfg = config_from_dict({"dim": 10, "t_max": 1.0, "points": 5, "alpha": [-0.3, 0.2],
                            "methods": ["split2"]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_trajectory(cfg)
        propagate(initial_state(cfg), 1.0, cfg.model_params(), step_bound=2.0)
    assert [w.category for w in caught] == [TruncationWarning] * 3
    assert [str(w.message).split(" raised")[0] for w in caught[:2]] == ["oracle-expm", "split2"]
    assert str(caught[2].message).startswith("top 3 Fock levels hold occupation")
