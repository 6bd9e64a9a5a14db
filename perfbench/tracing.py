"""Span tracing for the benchmark's traced run, and the per-layer metrics
computed from its span dump.

`Tracer.install` wraps rabicrit functions where their callers look them up:
every module global bound to a wrapped function is rebound to the wrapper, so
`ground_state` is traced whether `spectra.converge_cutoff`, `dynamics` or
`experiments` calls it. Nothing inside `src/` is edited. Spans (name, start,
end, parent, point id, extra) and counters stay in memory and are written
once, by `Tracer.dump`, after the sweeps.

A point is one sweep point: one `dynamics._echo_point` call, or, on the
fig1/fig2 path that has no per-point function, one `converge_cutoff` or
`variational.solve` call outside an echo point.

`layer_metrics` turns a dump into the per-layer metrics. A layer's self time
is the time its spans cover minus the time their child spans cover; its
`calls` count entries into the layer (spans whose parent is in another
layer). `dim3`, `exp_evals` and `bytes` are computed from matrix sizes.
This module imports nothing outside the standard library at top level, so the
parent process can use `layer_metrics` without importing numpy.
"""

from __future__ import annotations

import inspect
import json
import math
import time

# Wrapped functions ("module.attr" or "module.Class.attr") and their layer.
LAYER_OF = {
    "spectra.ground_state": "spectra.ground_state",
    "spectra.converge_cutoff": "spectra.converge_cutoff",
    "spectra.photon_moments": "spectra.moments",
    "spectra.operator_moments": "spectra.moments",
    "dynamics.SpectralDecomposition.of": "dynamics.spectral_decomposition",
    "dynamics.decoherence_factor": "dynamics.decoherence_factor",
    "dynamics.loschmidt_echo_sweep": "dynamics.sweep",
    "dynamics._echo_point": "dynamics.sweep",
    "dynamics._exact_branches": "dynamics.sweep",
    "dynamics._effective_branches": "dynamics.sweep",
    "variational.solve": "variational.solve",
    "experiments._echo_records": "experiments.records",
    "experiments._ground_state_records": "experiments.records",
    "experiments.run": "experiments.output",
    "experiments.write_csv": "experiments.output",
    "experiments.write_gnuplot_script": "experiments.output",
    "hilbert.Operator.dag": "hilbert.operator",
    "hilbert.Operator.is_hermitian": "hilbert.operator",
    "hilbert.Operator.__add__": "hilbert.operator",
    "hilbert.Operator.__sub__": "hilbert.operator",
    "hilbert.Operator.__matmul__": "hilbert.operator",
    "hilbert.Operator.__rmul__": "hilbert.operator",
}
# Every public function defined in these modules joins the module's layer.
MODULE_LAYER = {
    "hilbert": "hilbert.operator",
    "hamiltonians": "hamiltonians.build",
    "analytic": "analytic",
}
ROOT = "cli.main"
CUTOFF_BINS = tuple(8 << k for k in range(10))  # 8 .. 4096, doubling from n_start = 8

# Per-layer metrics and their units; BENCHMARK.json lists the same names.
METRICS = {
    "spectra.ground_state.calls": "count",
    "spectra.ground_state.self_s": "s",
    "spectra.ground_state.max_dim": "dim",
    "spectra.ground_state.dim3": "dim3",
    "spectra.ground_state.repeat_frac": "frac",
    "spectra.converge_cutoff.calls": "count",
    "spectra.converge_cutoff.self_s": "s",
    "spectra.converge_cutoff.incl_s.p50": "s",
    "spectra.converge_cutoff.incl_s.p90": "s",
    "spectra.converge_cutoff.incl_s.max": "s",
    "spectra.converge_cutoff.overshoot_dim3_frac": "frac",
    **{f"spectra.cutoff.n{n}": "count" for n in CUTOFF_BINS},
    "spectra.moments.calls": "count",
    "spectra.moments.self_s": "s",
    "dynamics.spectral_decomposition.calls": "count",
    "dynamics.spectral_decomposition.self_s": "s",
    "dynamics.spectral_decomposition.dim3": "dim3",
    "dynamics.decoherence_factor.calls": "count",
    "dynamics.decoherence_factor.self_s": "s",
    "dynamics.decoherence_factor.exp_evals": "count",
    "dynamics.sweep.self_s": "s",
    "hamiltonians.build.calls": "count",
    "hamiltonians.build.self_s": "s",
    "hilbert.operator.constructions": "count",
    "hilbert.operator.bytes": "B",
    "hilbert.operator.self_s": "s",
    "variational.solve.calls": "count",
    "variational.solve.self_s": "s",
    "analytic.calls": "count",
    "analytic.self_s": "s",
    "experiments.records.self_s": "s",
    "experiments.output.self_s": "s",
    "experiments.output.bytes": "B",
    "experiments.output.records": "count",
    "trace.sweep_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
    "trace.spans": "count",
}

# extras recorded per span, from (args, result)
_EXTRA = {
    # dimension, Fock cutoff, and a fingerprint of the Hamiltonian for repeat detection
    "spectra.ground_state": lambda a, out: [
        a[0].dim,
        a[0].dims[-1] - 1,
        hash((a[0].dims, a[0].mat.diagonal().tobytes(), a[0].mat[0].tobytes(),
              a[0].mat[-1].tobytes())),
    ],
    "spectra.converge_cutoff": lambda a, out: out.n_max,
    "dynamics.SpectralDecomposition.of": lambda a, out: a[1].dim,
    "dynamics.decoherence_factor": lambda a, out: a[0].dim * a[1].dim * len(out.times),
}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.point = 0
        self.echo_depth = 0
        self.constructions = 0
        self.bytes = 0

    def _wrap(self, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extra = _EXTRA.get(qualname)
        starts_point = qualname in ("spectra.converge_cutoff", "variational.solve")
        is_echo_point = qualname == "dynamics._echo_point"

        def wrapper(*args, **kwargs):
            if is_echo_point:
                self.point += 1
                self.echo_depth += 1
            elif starts_point and not self.echo_depth:
                self.point += 1
            rec = [name_id, clock(), 0.0, stack[-1] if stack else -1, self.point, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if is_echo_point:
                    self.echo_depth -= 1
            if extra is not None:
                try:
                    rec[5] = extra(args, out)
                except (AttributeError, IndexError, TypeError):
                    pass  # argument types changed: the span stays, its sizes are unknown
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, qualname, fn, *args):
        """Run fn(*args) as a root span named `qualname`."""
        return self._wrap(qualname, fn)(*args)

    def install(self):
        """Rebind the traced rabicrit functions in every rabicrit module.

        A module, function or method that no longer exists is skipped, so the
        traced run keeps working across refactors; its layer then reads 0.
        """
        import importlib

        mods = {}
        for name in ("hilbert", "hamiltonians", "spectra", "analytic",
                     "variational", "dynamics", "experiments", "cli"):
            try:
                mods[name] = importlib.import_module(f"rabicrit.{name}")
            except ImportError:
                pass
        targets = dict(LAYER_OF)
        for modname, layer in MODULE_LAYER.items():
            mod = mods.get(modname)
            for attr, obj in vars(mod).items() if mod else ():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[f"{modname}.{attr}"] = layer
        replaced = {}
        for qualname in targets:
            modname, *path = qualname.split(".")
            owner = mods.get(modname)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            raw = vars(owner).get(path[-1]) if owner is not None else None
            if isinstance(raw, classmethod):
                setattr(owner, path[-1], classmethod(self._wrap(qualname, raw.__func__)))
            elif callable(raw) and len(path) > 1:
                setattr(owner, path[-1], self._wrap(qualname, raw))
            elif callable(raw):
                replaced[id(raw)] = self._wrap(qualname, raw)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and callable(obj):
                    setattr(mod, attr, replaced[id(obj)])

        operator = getattr(mods.get("hilbert"), "Operator", None)
        post_init = getattr(operator, "__post_init__", None)
        if post_init is not None:
            def counted_post_init(op):
                post_init(op)
                self.constructions += 1
                self.bytes += op.mat.nbytes

            operator.__post_init__ = counted_post_init

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "spans": self.spans,
                "counters": {"hilbert.operator.constructions": self.constructions,
                             "hilbert.operator.bytes": self.bytes},
            }, fh)


def _quantile(sorted_vals, q):
    """Nearest-rank quantile of a sorted list (0 for an empty list)."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def layer_metrics(dump) -> dict:
    """Per-layer metrics (name -> value) from one child's span dump.

    `experiments.output.bytes`/`.records` and `trace.overhead_frac` need the
    output directory and the untraced run; the caller fills them in.
    """
    names, spans = dump["names"], dump["spans"]
    layer_of_name = [LAYER_OF.get(n) or MODULE_LAYER.get(n.split(".")[0]) for n in names]
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    self_s, calls = {}, {}
    root_s = 0.0
    for i, s in enumerate(spans):
        layer = layer_of_name[s[0]]
        if layer is None:
            if names[s[0]] == ROOT:
                root_s += s[2] - s[1]
            continue
        self_s[layer] = self_s.get(layer, 0.0) + (s[2] - s[1]) - child_time[i]
        parent_layer = layer_of_name[spans[s[3]][0]] if s[3] >= 0 else None
        if parent_layer != layer:
            calls[layer] = calls.get(layer, 0) + 1

    def by_name(qualname):
        return [(i, s) for i, s in enumerate(spans) if names[s[0]] == qualname]

    solves = [s for _, s in by_name("spectra.ground_state") if s[5] is not None]
    seen, repeats, dim3_total = set(), 0, 0
    for s in solves:
        d, _, fingerprint = s[5]
        dim3_total += d**3
        key = (s[4], fingerprint)
        repeats += key in seen
        seen.add(key)
    searches = by_name("spectra.converge_cutoff")
    chosen = {i: s[5] for i, s in searches if s[5] is not None}
    overshoot = sum(s[5][0] ** 3 for s in solves
                    if s[3] in chosen and s[5][1] > chosen[s[3]])
    incl = sorted(s[2] - s[1] for _, s in searches)
    decomps = [s for _, s in by_name("dynamics.SpectralDecomposition.of") if s[5] is not None]
    echoes = [s for _, s in by_name("dynamics.decoherence_factor") if s[5] is not None]
    layered = sum(self_s.values())

    m = {
        "spectra.ground_state.calls": calls.get("spectra.ground_state", 0),
        "spectra.ground_state.self_s": self_s.get("spectra.ground_state", 0.0),
        "spectra.ground_state.max_dim": max((s[5][0] for s in solves), default=0),
        "spectra.ground_state.dim3": dim3_total,
        "spectra.ground_state.repeat_frac": repeats / len(solves) if solves else 0.0,
        "spectra.converge_cutoff.calls": len(searches),
        "spectra.converge_cutoff.self_s": self_s.get("spectra.converge_cutoff", 0.0),
        "spectra.converge_cutoff.incl_s.p50": _quantile(incl, 0.5),
        "spectra.converge_cutoff.incl_s.p90": _quantile(incl, 0.9),
        "spectra.converge_cutoff.incl_s.max": incl[-1] if incl else 0.0,
        "spectra.converge_cutoff.overshoot_dim3_frac":
            overshoot / dim3_total if dim3_total else 0.0,
    }
    for nb in CUTOFF_BINS:
        m[f"spectra.cutoff.n{nb}"] = sum(1 for v in chosen.values() if v == nb)
    for layer in ("spectra.moments", "dynamics.spectral_decomposition",
                  "dynamics.decoherence_factor", "hamiltonians.build",
                  "variational.solve", "analytic"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in ("dynamics.sweep", "hilbert.operator", "experiments.records",
                  "experiments.output"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["dynamics.spectral_decomposition.dim3"] = sum(s[5] ** 3 for s in decomps)
    m["dynamics.decoherence_factor.exp_evals"] = sum(s[5] for s in echoes)
    m.update(dump["counters"])
    m["trace.sweep_s"] = root_s
    m["trace.coverage_frac"] = layered / root_s if root_s else 0.0
    m["trace.spans"] = n
    return m
