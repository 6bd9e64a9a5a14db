"""Tests for sweep configs, CSV/report output, the CLI, and the dispersive
bound every echo point records, against the tripartite evolution of the
tests' oracle."""

import dataclasses
import hashlib
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import rabicrit
from oracle import ProbeParams, max_rel_deviation, validate_dispersive
from rabicrit import experiments
from rabicrit.analytic import variance
from rabicrit.cli import main
from rabicrit.dynamics import GROUND_STATES, decoherence_factor, exact_ground_state
from rabicrit.experiments import (
    CSV_HEADER,
    METHODS,
    SweepConfig,
    critical_lambda_grid,
    default_config,
    run,
    write_gnuplot_script,
)
from rabicrit.hamiltonians import RabiParams
from rabicrit.spectra import CUTOFF_TOL
from rabicrit.variational import solve as variational_solve


def _tiny_config():
    return SweepConfig(
        figure="custom",
        lambda_grid=[0.5, 0.9, 1.2],
        eta_grid=[500.0],
        time_grid=[0.0, 20.0, 40.0],
        chi=1e-3,
        methods=["analytic", "variational"],
        cutoff_tol=1e-8,
    )


def test_config_validation():
    cfg = _tiny_config()
    cfg.validate()
    bad = _tiny_config()
    bad.lambda_grid = []
    with pytest.raises(ValueError):
        bad.validate()
    bad = _tiny_config()
    bad.lambda_grid = [0.9, 0.5]
    with pytest.raises(ValueError):
        bad.validate()
    bad = _tiny_config()
    bad.methods = ["quantum"]
    with pytest.raises(ValueError):
        bad.validate()
    bad = _tiny_config()
    bad.figure = "fig3"
    bad.chi = 0.0
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("grid, values", [
    ("eta_grid", [-100.0]),
    ("eta_grid", [0.0, 500.0]),
    ("lambda_grid", [-0.5, 0.5]),
    ("time_grid", [-1.0, 0.0, 20.0]),   # an echo figure's time
    ("chi", -1e-3),                      # a custom echo's probe
    ("figure", "fig1"),                  # with the analytic method
    ("lambda_grid", [0.5, 0.5]),         # not strictly increasing
    ("cutoff_tol", 0.0),
])
def test_config_rejects_out_of_range_grid(tmp_path, grid, values):
    # rejected before any point is solved or the output directory made; the
    # message names the setting
    cfg = _tiny_config()
    setattr(cfg, grid, values)
    with pytest.raises(ValueError, match=grid):
        run(cfg, tmp_path / "out")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key, value", [
    ("time_grid", [0.0, 10.0, 20.0]),
    ("time_grid", [10.0]),
    ("chi", 0.5),
    ("chi", float("nan")),
])
@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_ground_figures_reject_echo_settings(tmp_path, figure, key, value):
    # fig1/fig2 have no echo: a time or a probe would change the config hash
    # and not the results
    cfg = default_config(figure)
    setattr(cfg, key, value)
    with pytest.raises(ValueError, match=key):
        run(cfg, tmp_path / "out")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "{cfg}", "--out", "{out}", "--cutoff-tol", "1e-3"],  # the config's is used
    ["fig3", "--out", "{out}", "--threads", "2"],
    # the tolerance's one source is the config's cutoff_tol
    ["fig1", "--cutoff-tol", "1e-9"],
], ids=["sweep", "fig3", "fig1-cutoff-tol"])
def test_cli_rejects_flags_it_would_ignore(tmp_path, capsys, argv):
    path = tmp_path / "sweep.cfg"
    path.write_text(_tiny_config().canonical_text())
    with pytest.raises(SystemExit) as exc:
        main([arg.format(cfg=path, out=tmp_path) for arg in argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_config_hash_ignores_output_directory(tmp_path):
    # the hash covers what determines the results, not where they are written
    hashes = set()
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["fig1", "--out", str(out)]) == 0
        hashes.add(json.loads((out / "report.json").read_text())["provenance"]["config_hash"])
    assert len(hashes) == 1


def test_config_hash_is_the_sha256_of_the_canonical_text(tmp_path):
    # the built-in SHA-256 the library takes, against hashlib's
    cfg = default_config("fig1")
    run(cfg, out_dir=tmp_path)
    provenance = json.loads((tmp_path / "report.json").read_text())["provenance"]
    assert provenance["config_hash"] == hashlib.sha256(cfg.canonical_text().encode()).hexdigest()


def test_config_rejects_nan_settings(tmp_path):
    for value in (float("nan"), float("inf")):
        for figure, name in (("fig3", "cutoff_tol"), ("fig3", "chi"), ("custom", "chi")):
            bad = _tiny_config()
            bad.figure = figure
            setattr(bad, name, value)
            with pytest.raises(ValueError, match=name):
                run(bad, tmp_path / "out")
    assert not list(tmp_path.iterdir())


def test_config_file_roundtrip(tmp_path):
    cfg = _tiny_config()
    path = tmp_path / "sweep.cfg"
    path.write_text(cfg.canonical_text())
    parsed = SweepConfig.from_file(path)
    assert parsed.lambda_grid == cfg.lambda_grid
    assert parsed.methods == cfg.methods
    assert parsed.chi == cfg.chi
    assert parsed.canonical_text() == cfg.canonical_text()


def test_canonical_text_is_pinned():
    # `config_hash` hashes this text; changing it moves every report's hash
    assert default_config("fig1").canonical_text() == (
        "figure = fig1\n"
        "lambda_grid = 0.98999999999999999\n"
        "eta_grid = 1000 2000 5000 10000 20000 50000 100000\n"
        "time_grid = 0\n"
        "chi = 0\n"
        "methods = exact effective variational\n"
        "cutoff_tol = 1e-08\n"
    )


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("figure = custom\nwavelength = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        SweepConfig.from_file(path)
    # the output directory is set on the command line (`--out`) only
    path.write_text("figure = custom\noutput_path = out\n")
    with pytest.raises(ValueError, match="unknown key 'output_path'"):
        SweepConfig.from_file(path)
    path.write_text("just a line without equals\n")
    with pytest.raises(ValueError, match="key = value"):
        SweepConfig.from_file(path)


@pytest.mark.parametrize("lines, message", [
    ("methods = exact\nmethods = analytic\n", "'methods' given twice"),
    ("methods = exact exact\n", "each once"),
    ("methods = ,\n", "each once"),
    ("methods = exact\ncutoff_tol = inf\n", "cutoff_tol must be finite"),
    ("methods = exact\ntime_grid = 0 inf\n", "time_grid values must be finite"),
    ("methods = exact\neta_grid = inf\n", "eta_grid values must be finite"),
    ("methods = exact\nlambda_grid = 0.5 inf\n", "lambda_grid values must be finite"),
    ("methods = exact\nchi = inf\n", "chi must be finite"),
    # finite values whose derived ones overflow: a traceback mid-run
    ("lambda_grid = 1e300\neta_grid = 1e300\n", "lambda_grid and eta_grid out of range"),
    ("chi = 1e200\n", "chi too large"),
    # the displacement alpha overflows at lam**4; a finite grid builds an infinite phase
    # record, once written as L = nan rows marked converged, with exit status 0
    ("lambda_grid = 1e100\n", "out of range: the displacement alpha overflows at lam"),
    ("lambda_grid = 1e77\neta_grid = 1e200\nmethods = analytic variational\n",
     "out of range: the phase record is not finite"),
], ids=["key_twice", "method_twice", "no_method", "tol_inf", "time_inf", "eta_inf",
        "lambda_inf", "chi_inf", "coupling_overflow", "chi_squared_overflow",
        "alpha_overflow", "phase_not_finite"])
def test_sweep_rejects_config_fault(tmp_path, capsys, lines, message):
    # each of these once ran: with exit status 0, where the second key
    # silently won, every row was written twice, the CSV held only its
    # header, or an infinite tolerance marked unconverged rows converged;
    # or a non-finite grid value wrote NaN rows, or a traceback after the
    # output directory was made. A key the case sets replaces the base's.
    base = {"figure": "custom", "lambda_grid": "0.5", "eta_grid": "100",
            "time_grid": "0", "chi": "0.001"}
    given = {line.partition("=")[0].strip() for line in lines.splitlines()}
    path = tmp_path / "sweep.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items() if k not in given) + lines)
    with pytest.raises(ValueError, match=message):
        SweepConfig.from_file(path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("methods = exact\ncolour = red\n", "sweep.cfg:2: unknown key 'colour'"),
    (None, "No such file or directory"),
    ("methods = exact\nchi = abc\n", "sweep.cfg:2: chi: not a number: 'abc'"),
    ("lambda_grid = 0.5, 0.9x\n", "sweep.cfg:1: lambda_grid: not a number: '0.9x'"),
], ids=["unknown_key", "missing_file", "not_a_number", "grid_not_a_number"])
def test_cli_sweep_reports_config_error_in_one_line(tmp_path, capsys, text, message):
    # as argparse reports a bad flag: exit status 2 and one line on stderr,
    # naming the file, line and key, with no traceback
    path = tmp_path / "sweep.cfg"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rabicrit sweep: error: ") and err.count("\n") == 1, err
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["existing_file", "below_a_file"])
@pytest.mark.parametrize("command", ["fig3", "sweep"])
def test_cli_reports_unusable_out_in_one_line(tmp_path, capsys, monkeypatch, command, out):
    # an --out that cannot be made a directory is a bad flag: exit status 2
    # and one line on stderr, with no traceback, before any point is solved
    (tmp_path / "file").write_text("")
    config = tmp_path / "sweep.cfg"
    config.write_text(_tiny_config().canonical_text())
    solved = []
    monkeypatch.setattr(experiments, "_point", lambda *args: solved.append(args))
    argv = [command] if command == "fig3" else [command, "--config", str(config)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / out)])
    assert exc.value.code == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"rabicrit {command}: error: --out: ") and err.count("\n") == 1, err
    assert solved == []


def test_sweep_takes_its_cutoff_tolerance_from_the_config(tmp_path):
    # fig2 at cutoff_tol = 1e-10, set in its config, the tolerance's one
    # source: every exact and effective row records the cutoff its search
    # picks at 1e-10, and some differ from the default run's
    path = tmp_path / "fig2.cfg"
    path.write_text(dataclasses.replace(default_config("fig2"), cutoff_tol=1e-10).canonical_text(),
                    encoding="utf-8")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "tight")]) == 0
    assert main(["fig2", "--out", str(tmp_path / "default")]) == 0

    def cutoffs(out):
        rows = [row.split(",") for row in (out / "fig2.csv").read_text().splitlines()[1:]]
        return [(row[1], float(row[3]), int(row[8])) for row in rows if row[1] in GROUND_STATES]

    tight = cutoffs(tmp_path / "tight")
    assert len(tight) == 2 * 2 * 7  # two rows per point, two methods, seven etas
    for method, eta, cutoff in tight:
        assert cutoff == GROUND_STATES[method](RabiParams(1.01, eta), 1e-10).n_max
    assert tight != cutoffs(tmp_path / "default")


def test_empty_grid_no_output(tmp_path):
    cfg = _tiny_config()
    cfg.lambda_grid = []
    with pytest.raises(ValueError):
        run(cfg, out_dir=tmp_path)
    assert not (tmp_path / "custom.csv").exists()


def test_critical_lambda_grid():
    # 0.02 steps below 0.9 and above 1.1, 0.005 steps on [0.9, 1.1] but for
    # lam = 1 itself: 44 + 40 + 20 values
    ref = ([k / 50 for k in range(1, 45)] + [k / 200 for k in range(180, 221) if k != 200]
           + [k / 50 for k in range(56, 76)])
    grid = critical_lambda_grid()
    assert len(grid) == len(ref) == 104
    np.testing.assert_allclose(grid, ref, rtol=0.0, atol=1e-12)


def test_default_configs():
    # fig1, fig2 and fig5 are the benchmark's ground_fig1, ground_fig2 and
    # methods_fig5 inputs, field for field
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
    for figure, name in (("fig1", "ground_fig1"), ("fig2", "ground_fig2"), ("fig5", "methods_fig5")):
        assert default_config(figure) == SweepConfig.from_file(workloads / f"{name}.cfg")
    grid = critical_lambda_grid()
    assert default_config("fig3") == SweepConfig(
        "fig3", grid, [5000.0], [2.0 * k for k in range(51)], 1e-3, ["analytic"], 1e-8)
    assert default_config("fig4") == SweepConfig(
        "fig4", grid, [2000.0, 4000.0, 6000.0, 8000.0, 10000.0], [60.0], 1e-3, ["analytic"], 1e-8)
    with pytest.raises(ValueError):
        default_config("fig9")


def _time_series_config():
    return SweepConfig("custom", [0.5], [100.0], [0.0, 10.0, 20.0], 1e-3, ["analytic"])


@pytest.mark.parametrize("config, axis", [
    # fig1 sweeps eta at one lambda; fig4 is L(lambda) at t = 60 for five
    # etas, fig5 L(lambda) at one eta; a custom config with one lambda, one
    # eta and three times is L(t)
    (lambda: default_config("fig1"), "eta"),
    (lambda: default_config("fig4"), "lambda"),
    (lambda: default_config("fig5"), "lambda"),
    (_time_series_config, "omega_c_t"),
], ids=["fig1-eta", "fig4-lambda", "fig5-lambda", "time_series-omega_c_t"])
def test_gnuplot_script_plots_the_swept_axis(tmp_path, config, axis):
    cfg = config()
    cfg.validate()
    path = tmp_path / f"{cfg.figure}.gp"
    write_gnuplot_script(cfg, f"{cfg.figure}.csv", path)
    # every series: x the swept column, y the value column (fig1/fig2 select
    # their rows by value name, `(strcol(7) eq 'energy' ? $8 : NaN)`)
    for using in path.read_text().split(" using ")[1:]:
        xcol, ycol = using.split(":", 1)
        assert CSV_HEADER.split(",")[int(xcol) - 1] == axis
        value_col = CSV_HEADER.split(",").index("value") + 1
        assert ycol.split()[0] == str(value_col) or f"? ${value_col} :" in ycol


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_gnuplot_script_draws_energy_and_mean_n_apart(tmp_path, figure):
    # a ground point writes an energy row (down to -5e4) and a mean_n row
    # (about 1-10): one series each, selected by value name, each on its own
    # y axis, so mean_n is not drawn flat against the energies
    path = tmp_path / f"{figure}.gp"
    write_gnuplot_script(default_config(figure), f"{figure}.csv", path)
    text = path.read_text()
    names = CSV_HEADER.split(",")
    name_col, value_col = names.index("value_name") + 1, names.index("value") + 1
    series = text.split("plot ", 1)[1].strip().split(", ")
    assert series == [
        f"'{figure}.csv' every ::1 using 4:(strcol({name_col}) eq '{name}' ? ${value_col} : NaN) "
        f"axes x1{axis} with points title '{name}'"
        for name, axis in (("energy", "y1"), ("mean_n", "y2"))
    ]
    assert "set y2tics\n" in text


def test_run_writes_outputs(tmp_path):
    cfg = _tiny_config()
    points = run(cfg, out_dir=tmp_path)
    csv_path = tmp_path / "custom.csv"
    assert csv_path.exists()
    assert (tmp_path / "custom.gp").exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # 3 lambdas x 3 times x 2 methods
    assert len(lines) == 1 + 18
    assert all(pt.converged for pt in points)

    # one record per point, its per-row columns as lists
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema_version"] == 2
    assert "config_hash" in payload["provenance"]
    assert len(payload["points"]) == 6
    assert sum(len(rec["value"]) for rec in payload["points"]) == 18
    assert payload["points"] == [
        {**{k: v for k, v in vars(pt).items() if k != "lam"}, "lambda": pt.lam}
        for pt in points
    ]

    # determinism: identical config -> byte-identical CSV
    first = csv_path.read_bytes()
    run(cfg, out_dir=tmp_path)
    assert csv_path.read_bytes() == first


def test_csv_float_formatting(tmp_path):
    cfg = _tiny_config()
    run(cfg, out_dir=tmp_path)
    row = (tmp_path / "custom.csv").read_text().splitlines()[1].split(",")
    value = row[7]
    assert float(value) <= 1.0
    # 17 significant digits survive a round-trip
    assert f"{float(value):.17g}" == value


def test_cli_sweep_and_exit_codes(tmp_path, capsys):
    cfg = _tiny_config()
    path = tmp_path / "sweep.cfg"
    path.write_text(cfg.canonical_text())
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "custom.csv").exists()
    # the report and `rabicrit --version` name the package's version
    provenance = json.loads((tmp_path / "report.json").read_text())["provenance"]
    assert provenance["code_version"] == rabicrit.__version__
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{rabicrit.__version__}\n"


def _library_coherence(p, chi, times):
    """|D(t)|, the library's prediction of the probe coherence 2 |rho_eg|."""
    return np.abs(decoherence_factor(exact_ground_state(p, CUTOFF_TOL), chi, times))


def test_validate_dispersive_decoupled_probe():
    # g_s = 0: the tripartite coherence is 1 at every time, and so is the
    # library's |D| at chi = 0
    p, times = RabiParams(0.5, 40.0), np.linspace(0.0, 10.0, 5)
    report = validate_dispersive(p, ProbeParams(0.0, 1.0), times)
    assert max_rel_deviation(report.coherence, _library_coherence(p, 0.0, times)) < 1e-10


def test_validate_dispersive_warns_outside_regime():
    # Delta_s / |g_s| = 2. The sign of the coupling is a phase convention of
    # the probe: -g_s gives the same coherence as g_s, and violates
    # |Delta_s| >> |g_s| sqrt(<n>+1) as g_s does
    p = RabiParams(0.5, 40.0)
    times = np.linspace(0.0, 20.0, 41)
    predicted = _library_coherence(p, ProbeParams(0.1, 0.2).chi, times)
    reports = []
    for g_s in (0.1, -0.1):
        with pytest.warns(UserWarning, match="dispersive condition"):
            reports.append(validate_dispersive(p, ProbeParams(g_s, 0.2), times))
    assert [r.dispersive_regime for r in reports] == [False, False]
    deviations = [max_rel_deviation(r.coherence, predicted) for r in reports]
    assert deviations[1] == pytest.approx(deviations[0], rel=1e-9)


def test_validate_dispersive_flags_at_its_documented_boundary(tmp_path):
    # the point's recorded delta_s_min is the tripartite check's condition
    # |Delta_s| >= 10 |g_s| sqrt(<n> + 1) at g_s^2 = chi Delta_s: a probe of
    # the point's chi 0.1% above it is dispersive and quiet, 0.1% below is
    # not, and warns
    cfg = _tiny_config()
    cfg.lambda_grid, cfg.eta_grid, cfg.methods = [0.5], [40.0], ["exact"]
    (pt,) = run(cfg, tmp_path)
    p, times = RabiParams(pt.lam, pt.eta), np.linspace(0.0, 5.0, 3)

    def probe(delta_s):
        return ProbeParams(np.sqrt(pt.chi * delta_s), delta_s)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_dispersive(p, probe(pt.delta_s_min * (1 + 1e-3)), times).dispersive_regime
    with pytest.warns(UserWarning, match="dispersive condition"):
        report = validate_dispersive(p, probe(pt.delta_s_min * (1 - 1e-3)), times)
    assert not report.dispersive_regime


@pytest.mark.parametrize("lam", [1.1, 1.2])
def test_delta_s_min_bounds_the_tripartite_deviation(tmp_path, lam):
    """Above a superradiant point's recorded `delta_s_min`, the tripartite
    coherence (the oracle's dense evolution) departs from the point's own
    echo, sqrt(L) = |D|, by at most a bound that falls as 1/Delta_s.

    The bound. At g_s^2 = chi Delta_s the probe's coupling
    -g_s (sigma_- a^dag + sigma_+ a) is off resonance by Delta_s. At first
    order in g_s / Delta_s it moves the probe's |e> part, |e> psi_e(t), into
    |g> a^dag psi_e with probability
    P_e = 4 g_s^2 <a a^dag> sin^2(Delta_s t / 2) / Delta_s^2 <= 4 eps, with
    eps = chi (<n> + 1) / Delta_s, and its |g> part into |e> a psi_g with
    P_g <= 4 chi <n> / Delta_s < 4 eps; the second-order terms are the
    shifts -/+ chi n that the echo keeps. The coherence
    2 |rho_eg| = |<phi_g|phi_e>| then differs from |D| in two ways. The
    parts that stay lose norm: |D| (1 - sqrt((1 - P_g)(1 - P_e))) <= 4 eps |D|.
    The parts that moved have the other photon parity, so they overlap only
    each other, by at most sqrt(P_g P_e) < 4 eps. The relative deviation is
    therefore at most 4 eps (1 + 1 / min_t |D|), to first order in eps and
    with the Rabi transition frequencies that a and a^dag reach from the
    ground state small against Delta_s. At Delta_s = k delta_s_min,
    eps = 1 / (100 k).
    """
    cfg = _tiny_config()
    cfg.lambda_grid, cfg.eta_grid, cfg.methods = [lam], [200.0], ["exact"]
    cfg.time_grid = np.linspace(0.0, 20.0, 41).tolist()
    (pt,) = run(cfg, tmp_path)
    p, predicted = RabiParams(lam, 200.0), np.sqrt(pt.value)
    deviations = []
    for k in (1.0, 3.0, 10.0, 30.0):
        delta_s = k * pt.delta_s_min
        report = validate_dispersive(p, ProbeParams(np.sqrt(pt.chi * delta_s), delta_s),
                                     cfg.time_grid)
        assert report.dispersive_regime
        deviations.append(max_rel_deviation(report.coherence, predicted))
        assert deviations[-1] <= 4.0 / (100.0 * k) * (1.0 + 1.0 / predicted.min()), (k, deviations)
    assert deviations == sorted(deviations, reverse=True)


def test_echo_points_record_their_dispersive_bound(tmp_path):
    # each echo point records the mean photon number of the ground state its
    # method solves, and delta_s_min = 100 chi (mean_n + 1); report.json
    # holds both, the CSV neither
    cfg = _tiny_config()
    cfg.lambda_grid, cfg.methods = [0.5, 1.2], list(METHODS)
    points = run(cfg, tmp_path / "echo")
    assert {pt.method for pt in points} == set(METHODS)
    for pt in points:
        p = RabiParams(pt.lam, pt.eta)
        if pt.method in GROUND_STATES:
            mean_n = GROUND_STATES[pt.method](p, cfg.cutoff_tol).mean_n
        elif pt.method == "variational":
            mean_n = variational_solve(p).mean_n
        else:
            mean_n = variance(p)[0]
        assert pt.mean_n == mean_n > 0.0
        assert pt.delta_s_min == 100 * cfg.chi * (mean_n + 1)
    records = json.loads((tmp_path / "echo" / "report.json").read_text())["points"]
    assert [(r["mean_n"], r["delta_s_min"]) for r in records] == [
        (pt.mean_n, pt.delta_s_min) for pt in points]
    assert (tmp_path / "echo" / "custom.csv").read_text().splitlines()[0] == CSV_HEADER
    # a degraded point writes NaN; fig1/fig2 points, which have no probe, ""
    cfg.lambda_grid, cfg.eta_grid = [0.5], [1e-320, 1.0]  # the phase record overflows at 1e-320
    degraded = [pt for pt in run(cfg, tmp_path / "degraded") if not pt.converged]
    assert [pt.eta for pt in degraded] == [1e-320] * len(METHODS)
    assert all(np.isnan(pt.mean_n) and np.isnan(pt.delta_s_min) for pt in degraded)
    cfg = default_config("fig1")
    cfg.eta_grid = [1e3]
    assert [(pt.mean_n, pt.delta_s_min) for pt in run(cfg, tmp_path / "fig1")] == [("", "")] * 3


def test_report_wall_time_is_per_point(tmp_path):
    cfg = _tiny_config()
    cfg.methods = ["exact"]
    t0 = time.perf_counter()
    run(cfg, out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    records = json.loads((tmp_path / "report.json").read_text())["points"]
    # one time per point, shared by its rows; points differ in cost, and
    # together take no longer than the sweep
    assert [rec["lambda"] for rec in records] == cfg.lambda_grid
    per_point = [rec["wall_time"] for rec in records]
    assert all(w > 0.0 for w in per_point)
    assert len(set(per_point)) == len(per_point)
    assert sum(per_point) <= elapsed


def test_report_frame(tmp_path):
    # the exact method's frame above the transition depends on convergence,
    # not on lambda alone: the bare chains win at eta = 1000, the displaced
    # band at eta = 1e5; closed forms have no frame
    cfg = default_config("fig2")
    cfg.methods = ["exact", "effective", "variational"]
    frames = {(pt.method, pt.eta): pt.frame for pt in run(cfg, tmp_path / "fig2")}
    assert frames[("exact", 1e3)] == "bare"
    assert frames[("exact", 1e5)] == "displaced"
    assert frames[("effective", 1e3)] == "displaced"
    assert frames[("variational", 1e3)] == ""
    cfg = _tiny_config()
    cfg.methods = ["exact", "analytic"]
    frames = {(pt.method, pt.lam): pt.frame for pt in run(cfg, tmp_path / "echo")}
    assert frames == {("exact", 0.5): "bare", ("exact", 0.9): "bare", ("exact", 1.2): "displaced",
                      ("analytic", 0.5): "", ("analytic", 0.9): "", ("analytic", 1.2): ""}


def test_cli_has_no_seed_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["fig4", "--out", str(tmp_path), "--seed", "3"])


def test_ground_figures_sweep_every_lambda(tmp_path):
    # fig1/fig2 points run in the echo order (eta, method, lambda)
    cfg = default_config("fig1")
    cfg.lambda_grid, cfg.eta_grid = [0.5, 0.99], [1e3]
    cfg.methods = ["exact", "variational"]
    run(cfg, tmp_path)
    rows = [row.split(",") for row in (tmp_path / "fig1.csv").read_text().splitlines()[1:]]
    assert [(f[1], float(f[2]), f[6]) for f in rows] == [
        (method, lam, name)
        for method in ("exact", "variational")
        for lam in (0.5, 0.99)
        for name in ("energy", "mean_n")
    ]
    assert all(f[9] == "true" for f in rows)


def test_phase_record_that_overflows_degrades_its_point(tmp_path):
    # at eta = 1e-320 the record's c2/omega_t overflows: every method's point
    # there is degraded (once a traceback or a NaN row marked converged), and
    # the sweep goes on
    cfg = _tiny_config()
    cfg.lambda_grid, cfg.eta_grid = [0.5], [1e-320, 1.0]
    points = run(cfg, tmp_path)
    assert [(pt.eta, pt.converged) for pt in points] == [
        (1e-320, False), (1e-320, False), (1.0, True), (1.0, True)]


def test_critical_lambda_is_solved_or_rejected(tmp_path):
    # the exact and variational methods solve lam = 1; the closed-form
    # variance has no value there
    cfg = _tiny_config()
    cfg.lambda_grid, cfg.eta_grid, cfg.time_grid = [0.5, 1.0], [1000.0], [0.0, 50.0]
    cfg.methods = ["exact"]
    run(cfg, tmp_path / "exact")
    rows = [row.split(",") for row in (tmp_path / "exact" / "custom.csv").read_text().splitlines()[1:]]
    critical = [f for f in rows if float(f[2]) == 1.0]
    assert [float(f[5]) for f in critical] == [0.0, 50.0]
    assert all(f[8] == "64" and f[9] == "true" for f in critical)
    assert float(critical[0][7]) == pytest.approx(1.0, abs=1e-12)
    assert float(critical[1][7]) == pytest.approx(0.9999966, abs=1e-6)
    cfg.methods = ["exact", "analytic"]
    with pytest.raises(ValueError, match="lambda_grid values within 1e-06 of 1 have no analytic"):
        run(cfg, tmp_path / "analytic")
    assert not (tmp_path / "analytic").exists()
    cfg.methods = ["variational"]
    points = run(cfg, tmp_path / "variational")
    assert all(pt.converged for pt in points)
    assert points[1].lam == 1.0 and 0.0 < points[1].value[1] < 1.0
