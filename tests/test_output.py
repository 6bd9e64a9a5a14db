"""The sweep outputs against the per-record writer they replace.

`run` writes `<figure>.csv` per sweep point: the sweep's columns and each
row's time and value name are formatted once, and only `value` per row. The
oracle below is the per-record writer: every row of every point expanded
into a record, its figure, chi, time and value name from the config
(`_layout`), and formatted field by field; the CSV must equal its output
byte for byte. `report.json` holds each row's time and value name once, at
the top level, and one record per point with its `value` list, strict JSON
with null for a number that is not finite. Expanded row by row, with the
figure and chi of the config its provenance records, it must give the same
records, and so the same CSV.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import rabicrit.spectra as spectra
from rabicrit.cli import main
from rabicrit.experiments import CSV_HEADER, FIGURE_DEFAULTS, SweepConfig, run


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    return f"{float(x):.17g}"


def _layout(cfg):
    """The chi column and each row's time and value name, the same at every
    point: fig1/fig2, which have no probe, write no chi and an energy and a
    mean_n row at no time; the echo figures a row per time."""
    if cfg.figure in ("fig1", "fig2"):
        return "", ["", ""], ["energy", "mean_n"]
    return cfg.chi, list(cfg.time_grid), ["loschmidt_echo"] * len(cfg.time_grid)


def _records(cfg, points) -> list[dict]:
    """Every row of `points`, swept by `cfg`, as one record."""
    chi, times, names = _layout(cfg)
    return [
        {
            "figure": cfg.figure,
            "method": pt.method,
            "lambda": pt.lam,
            "eta": pt.eta,
            "chi": chi,
            "mean_n": pt.mean_n,
            "delta_s_min": pt.delta_s_min,
            "omega_c_t": t,
            "value_name": name,
            "value": value,
            "cutoff": pt.cutoff,
            "converged": pt.converged,
            "frame": pt.frame,
            "wall_time": pt.wall_time,
        }
        for pt in points
        for t, name, value in zip(times, names, pt.value, strict=True)
    ]


def _reject(token):
    raise ValueError(f"report.json holds {token}, which strict JSON does not")


def _expanded(report_path) -> list[dict]:
    """The point records of `report.json`, expanded to one record per row:
    its time and value name from the top level, the figure and chi from the
    config its provenance records."""
    payload = json.loads(report_path.read_text(encoding="utf-8"), parse_constant=_reject)
    assert set(payload) == {"omega_c_t", "value_name", "points", "provenance", "schema_version"}
    assert payload["schema_version"] == 6
    assert set(payload["provenance"]) == {"config", "code_version"}
    config_path = report_path.with_name("report.cfg")
    config_path.write_text(payload["provenance"]["config"], encoding="utf-8")
    cfg = SweepConfig.from_file(config_path)
    sweep = {"figure": cfg.figure, "chi": _layout(cfg)[0]}
    rows = []
    for pt in payload["points"]:
        shared = {**sweep, **{k: v for k, v in pt.items() if k != "value"}}
        for t, name, value in zip(payload["omega_c_t"], payload["value_name"], pt["value"],
                                  strict=True):
            rows.append({**shared, "omega_c_t": t, "value_name": name, "value": value})
    return rows


def _oracle_csv(records) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            ",".join(
                [
                    rec["figure"],
                    rec["method"],
                    _fmt(rec["lambda"]),
                    _fmt(rec["eta"]),
                    _fmt(rec["chi"]),
                    _fmt(rec["omega_c_t"]),
                    rec["value_name"],
                    _fmt(rec["value"]),
                    "" if rec["cutoff"] is None else str(rec["cutoff"]),
                    str(rec["converged"]).lower(),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _assert_oracle_bytes(cfg, points, out):
    records = _records(cfg, points)
    assert (out / f"{cfg.figure}.csv").read_text() == _oracle_csv(records)
    # floats are written by repr, so equal text is equal values; NaN as null
    null = [{k: None if isinstance(v, float) and math.isnan(v) else v for k, v in rec.items()}
            for rec in records]
    assert json.dumps(_expanded(out / "report.json"), sort_keys=True) == json.dumps(
        null, sort_keys=True)


def _echo_config(methods):
    return SweepConfig(
        figure="custom",
        lambda_grid=[0.0, 0.5, 1.2],
        eta_grid=[500.0, 5000.0],
        time_grid=[0.0, 20.0, 40.0],
        chi=1e-3,
        methods=methods,
    )


def test_echo_outputs_match_record_oracle(tmp_path):
    cfg = _echo_config(["exact", "effective", "analytic"])
    points = run(cfg, tmp_path)
    _assert_oracle_bytes(cfg, points, tmp_path)
    # 2 etas x 3 methods x 3 lambdas, 3 times each
    assert len(points) == 18
    assert len(_records(cfg, points)) == 54
    for rec in _records(cfg, points):
        if rec["method"] == "analytic":
            assert (rec["cutoff"], rec["frame"]) == (None, None)
        elif rec["lambda"] == 0.0:
            # solved like any other point: at g = 0, at the first cutoff
            assert (rec["cutoff"], rec["frame"], rec["value"]) == (8, "bare", 1.0)
        else:
            assert rec["cutoff"] > 0 and rec["frame"] in ("bare", "displaced")


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_ground_outputs_match_record_oracle(tmp_path, figure):
    cfg = dataclasses.replace(FIGURE_DEFAULTS[figure], eta_grid=[1e3, 1e5])
    points = run(cfg, tmp_path)
    _assert_oracle_bytes(cfg, points, tmp_path)
    assert len(_records(cfg, points)) == 2 * len(cfg.eta_grid) * len(cfg.methods)


def test_non_converging_points_are_recorded(tmp_path, monkeypatch, capsys):
    # at cap 16 only points that converge at cutoff 8 are solved; the others
    # are degraded rows (nan in the CSV, null in the strict JSON report,
    # converged=false, no cutoff or frame), the sweep goes on, and the CLI
    # exits with status 1
    monkeypatch.setattr(spectra, "CUTOFF_HARD_CAP", 16)
    cfg = dataclasses.replace(_echo_config(["exact", "analytic"]), lambda_grid=[0.3, 0.9, 1.2],
                              eta_grid=[500.0])
    points = run(cfg, tmp_path / "echo")
    _assert_oracle_bytes(cfg, points, tmp_path / "echo")
    capped = {("exact", 0.9), ("exact", 1.2)}
    assert {(pt.method, pt.lam) for pt in points if not pt.converged} == capped

    rows = (tmp_path / "echo" / "custom.csv").read_text().splitlines()[1:]
    records = _expanded(tmp_path / "echo" / "report.json")
    assert len(rows) == len(records) == 18
    for row, rec in zip(rows, records):
        fields = row.split(",")
        if (rec["method"], rec["lambda"]) in capped:
            assert fields[7:] == ["nan", "", "false"]
            assert rec["value"] is rec["mean_n"] is rec["delta_s_min"] is None
            assert (rec["converged"], rec["cutoff"], rec["frame"]) == (False, None, None)
        else:
            assert fields[9] == "true" and math.isfinite(float(fields[7]))
            assert rec["converged"] is True and math.isfinite(rec["value"])
    payload = json.loads((tmp_path / "echo" / "report.json").read_text())
    for pt in payload["points"]:
        if (pt["method"], pt["lambda"]) in capped:
            assert pt["value"] == [None] * 3

    cfg = dataclasses.replace(FIGURE_DEFAULTS["fig1"], eta_grid=[1e3])
    points = run(cfg, tmp_path / "fig1")
    _assert_oracle_bytes(cfg, points, tmp_path / "fig1")
    assert {pt.method: pt.converged for pt in points} == {
        "exact": False, "effective": False, "variational": True}

    path = tmp_path / "sweep.cfg"
    path.write_text(cfg.canonical_text())
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "cli")]) == 1
    out = capsys.readouterr().out
    assert "6 records written" in out and "(4 degraded)" in out
    assert main(["fig1", "--out", str(tmp_path / "cli")]) == 1


def test_echo_that_overflows_degrades_its_point(tmp_path, capsys):
    # at t = 1e306 the echo's phases (E - e_ref) t overflow: the point is
    # degraded (once a nan row marked converged, with exit status 0)
    path = tmp_path / "sweep.cfg"
    path.write_text("lambda_grid = 1.2\neta_grid = 100\ntime_grid = 0 1e306\n"
                    "chi = 1e-3\nmethods = exact\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "(2 degraded)" in capsys.readouterr().out
    rows = (tmp_path / "custom.csv").read_text().splitlines()[1:]
    assert [row.split(",")[7:] for row in rows] == [["nan", "", "false"]] * 2
    assert [(rec["converged"], rec["frame"], rec["value"], rec["mean_n"])
            for rec in _expanded(tmp_path / "report.json")] == [(False, None, None, None)] * 2


@pytest.mark.parametrize("figure", ["custom", "fig1"])
def test_report_holds_the_row_layout_once(tmp_path, figure):
    # a record holds only what varies by point; the rows' times and value
    # names are the config's, once at the top level, and report.json alone
    # (its layout, its records and the config it ran) rebuilds the CSV
    if figure == "fig1":
        cfg = dataclasses.replace(FIGURE_DEFAULTS["fig1"], eta_grid=[1e3, 1e5])
    else:
        cfg = _echo_config(["exact", "variational", "analytic"])
    run(cfg, tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    for rec in payload["points"]:
        assert not {"figure", "chi", "omega_c_t", "value_name"} & set(rec)
    assert (payload["omega_c_t"], payload["value_name"]) == _layout(cfg)[1:]
    rebuilt = _oracle_csv(_expanded(tmp_path / "report.json")).encode("utf-8")
    assert rebuilt == (tmp_path / f"{figure}.csv").read_bytes()
