"""The sweep outputs against the per-record writer they replace.

`run` writes `<figure>.csv` per sweep point: each point's constant fields
are formatted once, and only the per-row columns `omega_c_t`, `value_name`
and `value` per row. The oracle below is the per-record writer: every row of
every point expanded into a record and formatted field by field; the CSV
must equal its output byte for byte. `report.json` holds one record per
point, its per-row columns as lists; expanded row by row, it must give the
same records.
"""

import json
import math

import pytest

import rabicrit.spectra as spectra
from rabicrit.cli import main
from rabicrit.experiments import CSV_HEADER, SweepConfig, default_config, run


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    return f"{float(x):.17g}"


def _records(points) -> list[dict]:
    """Every row of `points` as one record."""
    return [
        {
            "figure": pt.figure,
            "method": pt.method,
            "lambda": pt.lam,
            "eta": pt.eta,
            "chi": pt.chi,
            "omega_c_t": t,
            "value_name": name,
            "value": value,
            "cutoff": pt.cutoff,
            "converged": pt.converged,
            "frame": pt.frame,
            "wall_time": pt.wall_time,
        }
        for pt in points
        for t, name, value in zip(pt.omega_c_t, pt.value_name, pt.value)
    ]


def _expanded(report_path) -> list[dict]:
    """The point records of `report.json`, expanded to one record per row."""
    payload = json.loads(report_path.read_text())
    assert set(payload) == {"points", "provenance", "schema_version"}
    assert payload["schema_version"] == 2
    rows = []
    for pt in payload["points"]:
        shared = {k: v for k, v in pt.items() if k not in ("omega_c_t", "value_name", "value")}
        for t, name, value in zip(pt["omega_c_t"], pt["value_name"], pt["value"]):
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
                    str(rec["cutoff"]),
                    str(rec["converged"]).lower(),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _assert_oracle_bytes(points, out, figure):
    records = _records(points)
    assert (out / f"{figure}.csv").read_text() == _oracle_csv(records)
    # compared as JSON text, where NaN equals NaN; floats are written by
    # repr, so equal text is equal values
    assert json.dumps(_expanded(out / "report.json"), sort_keys=True) == json.dumps(
        records, sort_keys=True)


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
    points = run(_echo_config(["exact", "effective", "analytic"]), tmp_path)
    _assert_oracle_bytes(points, tmp_path, "custom")
    # 2 etas x 3 methods x 3 lambdas, 3 times each
    assert len(points) == 18
    assert len(_records(points)) == 54
    for rec in _records(points):
        if rec["method"] == "analytic":
            assert (rec["cutoff"], rec["frame"]) == ("", "")
        elif rec["lambda"] == 0.0:
            # solved like any other point: at g = 0, at the first cutoff
            assert (rec["cutoff"], rec["frame"], rec["value"]) == (8, "bare", 1.0)
        else:
            assert rec["cutoff"] > 0 and rec["frame"] in ("bare", "displaced")


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_ground_outputs_match_record_oracle(tmp_path, figure):
    cfg = default_config(figure)
    cfg.eta_grid = [1e3, 1e5]
    points = run(cfg, tmp_path)
    _assert_oracle_bytes(points, tmp_path, figure)
    assert len(_records(points)) == 2 * len(cfg.eta_grid) * len(cfg.methods)


def test_non_converging_points_are_recorded(tmp_path, monkeypatch, capsys):
    # at cap 16 only points that converge at cutoff 8 are solved; the others
    # are degraded rows (NaN, converged=false, no cutoff or frame), the sweep
    # goes on, and the CLI exits with status 1
    monkeypatch.setattr(spectra, "CUTOFF_HARD_CAP", 16)
    cfg = _echo_config(["exact", "analytic"])
    cfg.lambda_grid, cfg.eta_grid = [0.3, 0.9, 1.2], [500.0]
    points = run(cfg, tmp_path / "echo")
    _assert_oracle_bytes(points, tmp_path / "echo", "custom")
    capped = {("exact", 0.9), ("exact", 1.2)}
    assert {(pt.method, pt.lam) for pt in points if not pt.converged} == capped

    rows = (tmp_path / "echo" / "custom.csv").read_text().splitlines()[1:]
    records = _expanded(tmp_path / "echo" / "report.json")
    assert len(rows) == len(records) == 18
    for row, rec in zip(rows, records):
        fields = row.split(",")
        if (rec["method"], rec["lambda"]) in capped:
            assert fields[7:] == ["nan", "", "false"]
            assert math.isnan(rec["value"])
            assert (rec["converged"], rec["cutoff"], rec["frame"]) == (False, "", "")
        else:
            assert fields[9] == "true" and math.isfinite(float(fields[7]))
            assert rec["converged"] is True and math.isfinite(rec["value"])
    payload = json.loads((tmp_path / "echo" / "report.json").read_text())
    for pt in payload["points"]:
        if (pt["method"], pt["lambda"]) in capped:
            assert len(pt["value"]) == 3 and all(math.isnan(v) for v in pt["value"])

    cfg = default_config("fig1")
    cfg.eta_grid = [1e3]
    points = run(cfg, tmp_path / "fig1")
    _assert_oracle_bytes(points, tmp_path / "fig1", "fig1")
    assert {pt.method: pt.converged for pt in points} == {
        "exact": False, "effective": False, "variational": True}

    path = tmp_path / "sweep.cfg"
    path.write_text(cfg.canonical_text())
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "cli")]) == 1
    out = capsys.readouterr().out
    assert "6 records written" in out and "(4 degraded)" in out
    assert main(["fig1", "--out", str(tmp_path / "cli")]) == 1
