"""Output checks behind the benchmark's `ok_frac`: per-point invariants, the
exact-vs-effective agreement of the fig5 criterion, and comparison with the
committed seed-0 reference values.

A point is one (method, lambda, eta) row group of a sweep's CSV. The CLI fixes
omega_c = 1, so energies and frequencies below are in units of omega_c.

Reference tolerances come from `cutoff_tol` and the physics, not from observed
run-to-run spread. The cutoff search stops once the ground energy moves by
less than `cutoff_tol` on doubling, so a run that picks a different (valid)
cutoff may differ from the reference by up to `cutoff_tol` in energy per run.
By the variational bound, an energy error dE leaves a state error of at most
sqrt(dE / gap), where gap is the excitation frequency of the phase at
infinite eta (sqrt(1 - lam^2) below lam = 1, sqrt(1 - lam^-4) above), a lower
bound on the finite-eta gap near the transition. Hence:

- echo L(t) = |<a|b>|^2 of unit vectors: |dL| <= 4 sqrt(cutoff_tol / gap);
- mean photon number: |d<n>| <= 4 sqrt(cutoff_tol / gap) (<n> + 1), since
  ||n psi|| <= 2 (<n> + 1) for the squeezed, displaced ground states;
- ground energy: |dE| <= 2 cutoff_tol + 1e-12 |E|, the second term covering a
  backward-stable eigensolver's roundoff (d eps ||H|| with d <= 4098);
- closed forms (analytic, variational) have no cutoff: 1e-9 relative.
"""

from __future__ import annotations

import csv
import math

ROUNDOFF = 1e-9            # L in [0, 1] and L(0) = 1 hold to this
FIG5_AGREEMENT = 5e-2      # acceptance criterion 10: |L_exact - L_effective|
CUTOFF_METHODS = ("exact", "effective")


def gap(lam: float) -> float:
    """Excitation frequency of the infinite-eta Rabi model at coupling lam."""
    return math.sqrt(1.0 - lam * lam) if lam < 1.0 else math.sqrt(1.0 - lam**-4)


def tolerance(method: str, value_name: str, lam: float, ref: float, cutoff_tol: float) -> float:
    if method not in CUTOFF_METHODS:
        return ROUNDOFF * (abs(ref) + 1.0)
    state = math.sqrt(cutoff_tol / gap(lam))
    if value_name == "loschmidt_echo":
        return 4.0 * state + ROUNDOFF
    if value_name == "mean_n":
        return 4.0 * state * (abs(ref) + 1.0)
    return 2.0 * cutoff_tol + 1e-12 * abs(ref)


def read_points(csv_path) -> dict:
    """{(method, lambda, eta): {"cutoff", "converged", "values": {(name, t): value}}}"""
    points = {}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["method"], float(row["lambda"]), float(row["eta"]))
            pt = points.setdefault(key, {"cutoff": row["cutoff"], "converged": True, "values": {}})
            pt["converged"] &= row["converged"] == "true"
            t = float(row["omega_c_t"]) if row["omega_c_t"] else None
            pt["values"][(row["value_name"], t)] = float(row["value"])
    return points


def expected_points(cfg: dict) -> list[tuple]:
    lams = cfg["lambda_grid"]
    if cfg["figure"] in ("fig1", "fig2"):
        lams = lams[:1]  # the ground-state path sweeps eta at the first lambda
    return [(m, lam, eta) for eta in cfg["eta_grid"] for m in cfg["methods"] for lam in lams]


def check_sweep(cfg: dict, csv_path, reference: dict | None) -> dict:
    """Check one sweep's CSV; return {point: reason} for every failed point.

    `reference` maps "method|lambda|eta" to {"name|t": value}; pass None to
    check invariants only (jittered seeds, the self-test grid).
    """
    points = read_points(csv_path)
    failed = {}
    echo = cfg["figure"] not in ("fig1", "fig2")
    for key in expected_points(cfg):
        method, lam, eta = key
        pt = points.get(key)
        if pt is None:
            failed[key] = "missing from output"
            continue
        reason = _point_invariants(method, pt, echo, cfg["time_grid"])
        if reason is None and reference is not None:
            reason = _against_reference(key, pt, reference, cfg["cutoff_tol"])
        if reason is not None:
            failed[key] = reason
    if echo and all(m in cfg["methods"] for m in CUTOFF_METHODS):
        for lam in cfg["lambda_grid"]:
            for eta in cfg["eta_grid"]:
                ex = points.get(("exact", lam, eta))
                ef = points.get(("effective", lam, eta))
                if ex is None or ef is None:
                    continue
                dev = max(abs(ex["values"][k] - ef["values"].get(k, math.inf))
                          for k in ex["values"])
                if not dev <= FIG5_AGREEMENT:
                    for m in CUTOFF_METHODS:
                        failed.setdefault((m, lam, eta), f"exact vs effective differ by {dev:.3g}")
    return failed


def _point_invariants(method, pt, echo, times):
    if not pt["converged"]:
        return "converged=false"
    if method in CUTOFF_METHODS and not pt["cutoff"]:
        return "no cutoff recorded"
    values = pt["values"]
    if not all(math.isfinite(v) for v in values.values()):
        return "non-finite value"
    if echo:
        if sorted(t for _, t in values) != sorted(times):
            return "time grid incomplete"
        for (_, t), v in values.items():
            if not -ROUNDOFF <= v <= 1.0 + ROUNDOFF:
                return f"L({t}) = {v} outside [0, 1]"
            if t == 0.0 and abs(v - 1.0) > ROUNDOFF:
                return f"L(0) = {v} != 1"
    elif values.get(("mean_n", None), 0.0) < -ROUNDOFF:
        return "negative mean photon number"
    return None


def _against_reference(key, pt, reference, cutoff_tol):
    method, lam, eta = key
    ref = reference.get(point_id(key))
    if ref is None:
        return "no reference value"
    for (name, t), v in pt["values"].items():
        r = ref.get(value_id(name, t))
        if r is None:
            return f"no reference for {name} at t={t}"
        tol = tolerance(method, name, lam, r, cutoff_tol)
        if not abs(v - r) <= tol:
            return f"{name}(t={t}) = {v!r}, reference {r!r}, tolerance {tol:.3g}"
    return None


def point_id(key) -> str:
    method, lam, eta = key
    return f"{method}|{lam!r}|{eta!r}"


def value_id(name, t) -> str:
    return name if t is None else f"{name}|{t!r}"


def reference_values(csv_path) -> dict:
    """Reference table for `check_sweep`, read from a sweep's CSV."""
    return {
        point_id(key): {value_id(name, t): v for (name, t), v in pt["values"].items()}
        for key, pt in read_points(csv_path).items()
    }
