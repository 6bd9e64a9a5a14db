"""Tests for sweep configs, CSV/report output, the CLI, and the tripartite
check of the dispersive approximation."""

import hashlib
import json

import numpy as np
import pytest

from rabicrit.cli import main
from rabicrit.experiments import (
    CSV_HEADER,
    SweepConfig,
    critical_lambda_grid,
    default_config,
    run,
    validate_dispersive,
    write_gnuplot_script,
)
from rabicrit.hamiltonians import ProbeParams, RabiParams
from rabicrit.hilbert import FockCutoff


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


@pytest.mark.parametrize("flag, value", [
    ("--n-times", "0"),
    ("--eta", "0"),
    ("--eta", "-200"),
    ("--t-max", "-1"),
    ("--lam", "-0.5"),
    ("--g-s", "0"),
    ("--detuning-ratio", "0"),
    ("--detuning-ratio", "nan"),
    ("--threshold", "0"),
    ("--threshold", "nan"),
    ("--cutoff-tol", "0"),
    # non-finite values once passed the parser: tracebacks, or a report
    ("--lam", "inf"),
    ("--eta", "inf"),
    ("--g-s", "inf"),
    ("--detuning-ratio", "inf"),
    ("--detuning-ratio", "-inf"),
    ("--t-max", "inf"),
    ("--threshold", "inf"),
    ("--cutoff-tol", "inf"),
])
def test_cli_validate_dispersive_rejects_bad_arguments(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["validate-dispersive", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "{cfg}", "--out", "{out}", "--cutoff-tol", "1e-3"],  # the config's is used
    ["fig3", "--out", "{out}", "--threads", "2"],
    ["validate-dispersive", "--out", "D"],  # writes no file
], ids=["sweep", "fig3", "validate-dispersive"])
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
], ids=["key_twice", "method_twice", "no_method", "tol_inf", "time_inf", "eta_inf",
        "lambda_inf", "chi_inf"])
def test_sweep_rejects_config_fault(tmp_path, lines, message):
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
        main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_empty_grid_no_output(tmp_path):
    cfg = _tiny_config()
    cfg.lambda_grid = []
    with pytest.raises(ValueError):
        run(cfg, out_dir=tmp_path)
    assert not (tmp_path / "custom.csv").exists()


def test_critical_lambda_grid():
    grid = critical_lambda_grid()
    arr = np.asarray(grid)
    assert all(abs(v - 1.0) >= 1e-6 for v in grid)
    near = arr[(arr >= 0.9) & (arr <= 1.1)]
    assert np.allclose(np.diff(near), 0.005, atol=1e-9) or max(np.diff(near)) < 0.011
    assert arr.min() > 0.0 and arr.max() <= 1.5 + 1e-9


def test_default_configs():
    f3 = default_config("fig3")
    assert f3.eta_grid == [5000.0]
    assert f3.chi == 1e-3
    f4 = default_config("fig4")
    assert f4.eta_grid == [2000.0, 4000.0, 6000.0, 8000.0, 10000.0]
    assert f4.time_grid == [60.0]
    f5 = default_config("fig5")
    assert f5.eta_grid == [1e5]
    assert set(f5.methods) == {"exact", "effective", "variational", "analytic"}
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
    xcol, ycol = path.read_text().split(" using ")[1].split()[0].split(":")
    assert CSV_HEADER.split(",")[int(xcol) - 1] == axis
    assert CSV_HEADER.split(",")[int(ycol) - 1] == "value"


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


def test_cli_sweep_and_exit_codes(tmp_path):
    cfg = _tiny_config()
    path = tmp_path / "sweep.cfg"
    path.write_text(cfg.canonical_text())
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "custom.csv").exists()


def test_cli_validate_dispersive_fast(capsys):
    rc = main(
        [
            "validate-dispersive",
            "--lam", "0.4",
            "--eta", "40",
            "--g-s", "0.05",
            "--detuning-ratio", "100",
            "--t-max", "10",
            "--n-times", "6",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["passed"]
    assert out["max_rel_deviation"] < 0.05


def test_validate_dispersive_decoupled_probe():
    p = RabiParams.from_dimensionless(0.5, 40.0)
    probe = ProbeParams(2.0, 0.0, 1.0)
    report = validate_dispersive(p, probe, np.linspace(0.0, 10.0, 5), cutoff=FockCutoff(24))
    assert report.max_rel_deviation < 1e-10


def test_validate_dispersive_warns_outside_regime():
    p = RabiParams.from_dimensionless(0.5, 40.0)
    probe = ProbeParams(1.2, 0.1, 0.2)  # Delta_s / g_s = 2
    with pytest.warns(UserWarning):
        validate_dispersive(p, probe, [0.0, 1.0], cutoff=FockCutoff(24))


def test_report_wall_time_is_per_point(tmp_path):
    cfg = _tiny_config()
    cfg.methods = ["exact"]
    run(cfg, out_dir=tmp_path)
    records = json.loads((tmp_path / "report.json").read_text())["points"]
    # one time per point, shared by its rows; points differ in cost
    assert [rec["lambda"] for rec in records] == cfg.lambda_grid
    per_point = [rec["wall_time"] for rec in records]
    assert all(w > 0.0 for w in per_point)
    assert len(set(per_point)) == len(per_point)


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


def test_critical_lambda_is_solved_or_rejected(tmp_path):
    # the exact method solves lam = 1; the closed forms have no value there
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
    for method in ("analytic", "variational"):
        cfg.methods = ["exact", method]
        with pytest.raises(ValueError, match="lambda_grid"):
            run(cfg, tmp_path / method)
        assert not (tmp_path / method).exists()
