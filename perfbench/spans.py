"""Span tracing of finslerlab from outside the program.

The tracer replaces functions of the eight finslerlab modules with thin
wrappers that record one span (name, start, end, parent) per call.  A
function is replaced at every module that binds it, because ``indicatrix``
and ``checks`` import their collaborators by name; patching only the
defining module would miss those call sites.  Spans are kept in flat typed
arrays while the workload runs; metrics are derived from them, and they are
written to disk, after the workload has finished.

A span's self time is its duration minus the durations of its direct
children.  Calls are properly nested on one thread, so children never
overlap, and the self times of all spans under a root span add up to that
root's wall time exactly.  Root spans are opened by the benchmark: one per
operation (``bench.op``) and one around set-up (``bench.setup``); a root's
own self time is the unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("jets", "expr", "core", "volume", "zoo", "indicatrix", "checks", "cli")

# Functions that live in one module but belong to another layer: the volume
# coefficient and its gradient are defined in core and computed in volume.
LAYER_OVERRIDES = {
    "core.sigma_value": "volume",
    "core.dln_sigma": "volume",
    "core._ln_sigma_as_jet": "volume",
    "core._a_matrix_jets": "volume",
}

# Methods traced besides module-level functions (None: every method in the
# class body).  Jet.__init__, Jet._coerce, TensorJets.gamma and the value
# properties run for nearly every jet operation and cost less than a span,
# so their time is charged to the caller.
METHODS = {
    "jets": {"Jet": None, "JetSpace": ("__init__", "multiply")},
    "core": {
        "MetricModel": ("__init__", "_validate", "sample_x", "sample_y", "f"),
        "TensorJets": ("__init__", "d_f2"),
    },
    "zoo": {"ZooEntry": ("build",)},
}
NOT_TRACED = frozenset({"jets.Jet.__init__", "jets.Jet._coerce", "jets.Jet.__repr__"})

# Jet operations whose spans are named per (n_vars, order) of the operand.
BY_SPACE = {
    "jets.Jet.derivative": "derivative",
    "jets.Jet.compose": "compose",
    "jets.JetSpace.multiply": "multiply",
    "jets.jet_matrix_inverse": "linalg",
    "jets.jet_matrix_det": "linalg",
}

OP = "bench.op"
SETUP = "bench.setup"
TABLE_BUILD = "jets.tables.build"

# Named regions.  A region metric sums the self time, in the region's
# layer, of every span at or below a span with one of the member names.
REGIONS = {
    "core.coordinate_tensors": ("core", ("core.coordinate_tensors",)),
    "core.spray": ("core", ("core._spray_jets", "core.s_main_jet")),
    "volume.sigma": ("volume", ("core.sigma_value",)),
    "volume.dln_sigma": ("volume", ("core.dln_sigma",)),
    "indicatrix.restrict_fields": ("indicatrix", ("indicatrix.restrict_fields",)),
    "indicatrix.fibre_snapshot": ("indicatrix", ("indicatrix.fibre_snapshot",)),
    "indicatrix.s_third_covariant": ("indicatrix", ("indicatrix.s_third_covariant",)),
    "indicatrix.sample_fibre_points": ("indicatrix", ("indicatrix.sample_fibre_points",)),
    "checks.weak_isotropy": ("checks", ("checks.weak_isotropy_check",)),
    OP: ("", (OP,)),
    SETUP: ("", (SETUP,)),
}


def _space_of(first):
    if isinstance(first, list):  # a matrix of jets
        return first[0][0].space
    return getattr(first, "space", first)


def _evaluate_kind(args) -> str:
    """expr.evaluate is split by what it evaluates on: jets, arrays or floats."""
    for value in list(args[1]) + list(args[2]):
        if isinstance(value, np.ndarray):
            return "expr.evaluate_array"
        if hasattr(value, "coeffs"):
            return "expr.evaluate"
    return "expr.evaluate_float"


class Tracer:
    """Records spans inside root spans; outside them the wrappers only forward."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_bits: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.mask = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [(-1, 0)]
        self._bits: dict[str, int] = {}
        for bit, (_, members) in enumerate(REGIONS.values()):
            for member in members:
                self._bits[member] = self._bits.get(member, 0) | (1 << bit)
        self.dln_sigma_bases: set[tuple] = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._name_bits.append(self._bits.get(name.split("@", 1)[0], 0))
        return nid

    def bit(self, region: str) -> int:
        return 1 << list(REGIONS).index(region)

    # -- recording ---------------------------------------------------------

    def _enter(self, nid: int) -> int:
        pidx, pmask = self._stack[-1]
        idx = len(self.name)
        mask = pmask | self._name_bits[nid]
        self.name.append(nid)
        self.parent.append(pidx)
        self.mask.append(mask)
        self.end.append(0.0)
        self._stack.append((idx, mask))
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def root(self, name: str):
        """Context manager for a root span (``OP`` or ``SETUP``)."""
        return _RootSpan(self, self.name_id(name))

    def _wrap(self, qualname: str, fn):
        tracer = self
        if qualname in BY_SPACE:
            space_ids: dict[int, int] = {}

            def key(args):
                space = _space_of(args[0])
                nid = space_ids.get(id(space))
                if nid is None:
                    nid = space_ids[id(space)] = tracer.name_id(
                        f"{qualname}@{space.n_vars}x{space.order}"
                    )
                return nid

        elif qualname == "expr.evaluate":

            def key(args):
                return tracer.name_id(_evaluate_kind(args))

        elif qualname == "core.dln_sigma":
            nid = self.name_id(qualname)
            op_bit = self.bit(OP)

            def key(args):
                if tracer._stack[-1][1] & op_bit:
                    tracer.dln_sigma_bases.add(tuple(float(v) for v in args[1]))
                return nid

        else:
            nid = self.name_id(qualname)

            @functools.wraps(fn)
            def plain(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                idx = tracer._enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(idx)

            return plain

        @functools.wraps(fn)
        def keyed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._enter(key(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)

        return keyed

    def _wrap_table_build(self, fn):
        """JetSpace._mul runs on every product; only the call that builds the
        product table gets a span, so cache hits cost no span."""
        tracer = self
        nid = self.name_id(TABLE_BUILD)

        @functools.wraps(fn)
        def wrapper(space):
            if not tracer.active or space._mul_table is not None:
                return fn(space)
            idx = tracer._enter(nid)
            try:
                return fn(space)
            finally:
                tracer._exit(idx)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every finslerlab module binding it.

        Names that a future version of the program no longer has are skipped,
        so their metrics read 0 instead of failing the run.
        """
        modules = {layer: importlib.import_module(f"finslerlab.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                if cls is None:
                    continue
                body = vars(cls)
                if methods is None:
                    methods = [
                        m for m, v in body.items()
                        if inspect.isfunction(v) or isinstance(v, staticmethod)
                    ]
                for method in methods:
                    qual = f"{layer}.{cls_name}.{method}"
                    raw = body.get(method)
                    if raw is None or qual in NOT_TRACED:
                        continue
                    if isinstance(raw, staticmethod):
                        setattr(cls, method, staticmethod(self._wrap(qual, raw.__func__)))
                    else:
                        setattr(cls, method, self._wrap(qual, raw))
                if cls_name == "JetSpace" and "_mul" in body:
                    setattr(cls, "_mul", self._wrap_table_build(body["_mul"]))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "mask": np.frombuffer(self.mask, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Write the spans (name id, parent index, start, end) and the name table."""
        spans = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=spans["name"],
            parent=spans["parent"],
            start=spans["start"],
            end=spans["end"],
        )

    def layer_of(self, name: str) -> str:
        base = name.split("@", 1)[0]
        if base in (OP, SETUP):
            return "bench"
        return LAYER_OVERRIDES.get(base, base.split(".", 1)[0])


class _RootSpan:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.tracer.active = True
        self.idx = self.tracer._enter(self.nid)

    def __exit__(self, *exc):
        self.tracer._exit(self.idx)
        self.tracer.active = False
        return False


# (n_vars, order) spaces reported one by one; together they are every space
# the three workloads use at the seed commit.  Time in any other space still
# counts in the per-operation totals.
SPACES = {
    "derivative": ("2x2", "2x3", "2x4", "3x1", "3x2", "3x3", "6x3", "6x4", "6x5", "6x6",
                   "8x3", "8x4", "8x5", "8x6"),
    "multiply": ("2x1", "2x2", "2x3", "2x4", "3x0", "3x1", "3x2", "3x3", "6x1", "6x2", "6x3",
                 "6x4", "6x5", "6x6", "8x1", "8x2", "8x3", "8x4", "8x5", "8x6"),
    "compose": ("6x1", "6x2", "6x3", "8x1", "8x2"),
    "linalg": ("2x1", "3x0", "3x1", "6x1", "6x3", "6x4", "8x2", "8x3", "8x4"),
}


def _per_layer_units() -> dict[str, str]:
    units = {f"layer.{layer}.self_s": "s/op" for layer in LAYERS}
    units["trace.unattributed_s"] = "s/op"
    units["trace.wall_s"] = "s/op"
    for op in ("derivative", "multiply", "compose"):
        units[f"jets.{op}.calls"] = "1/op"
        units[f"jets.{op}.self_s"] = "s/op"
    units["jets.linalg.self_s"] = "s/op"
    for op, spaces in SPACES.items():
        for space in spaces:
            units[f"jets.{op}.{space}.self_s"] = "s/op"
    units["jets.tables.built"] = "count"
    units["jets.tables.build_s"] = "s"
    for kind in ("evaluate", "evaluate_array", "evaluate_float"):
        units[f"expr.{kind}.calls"] = "1/op"
        units[f"expr.{kind}.self_s"] = "s/op"
    units["core.expansions"] = "1/op"
    units["core.expansions_per_point"] = "1/point"
    units["volume.sigma.calls"] = "1/op"
    units["volume.dln_sigma.calls"] = "1/op"
    units["volume.dln_sigma.incl_s"] = "s/op"
    units["volume.dln_sigma.calls_per_base"] = "1/base"
    units["volume.quadratures"] = "1/op"
    for region, (layer, _) in REGIONS.items():
        if layer:
            units[f"{region}.self_s"] = "s/op"
    for call in ("restrict_fields", "fibre_snapshot", "s_third_covariant"):
        units[f"indicatrix.{call}.calls"] = "1/op"
    units["checks.self_s"] = "s/op"
    units["cli.self_s"] = "s/op"
    units["cli.report_bytes"] = "bytes/op"
    units["zoo.build_s"] = "s"
    return units


PER_LAYER_UNITS = _per_layer_units()


def layer_metrics(tracer: Tracer, ops: int, points: int, report_bytes: int) -> dict[str, float]:
    """Every per-layer metric (the keys of ``PER_LAYER_UNITS``) from the spans.

    Times and counts under ``bench.op`` roots are divided by ``ops``; the
    table builds and model builds are totals over the ``bench.setup`` root.
    ``points`` is the number of fibre or flag points the operations
    evaluated and ``report_bytes`` the size of the CLI reports they wrote.
    """
    spans = tracer.arrays()
    name, parent, mask = spans["name"], spans["parent"], spans["mask"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    names = tracer.names
    base = np.array([n.split("@", 1)[0] for n in names])
    layer = np.array([tracer.layer_of(n) for n in names])
    in_op = (mask & tracer.bit(OP)) != 0
    in_setup = (mask & tracer.bit(SETUP)) != 0
    span_base = base[name]
    span_layer = layer[name]

    def per_op_self(sel) -> float:
        return float(self_s[in_op & sel].sum()) / ops

    def per_op_calls(sel) -> float:
        return float(np.count_nonzero(in_op & sel)) / ops

    def named(*qualnames):
        return np.isin(span_base, qualnames)

    out: dict[str, float] = {}
    for lay in LAYERS:
        out[f"layer.{lay}.self_s"] = per_op_self(span_layer == lay)
    out["trace.unattributed_s"] = per_op_self(named(OP))
    out["trace.wall_s"] = float(dur[named(OP)].sum()) / ops

    for kind in ("derivative", "multiply", "compose"):
        sel = named(*(q for q, k in BY_SPACE.items() if k == kind))
        out[f"jets.{kind}.calls"] = per_op_calls(sel)
        out[f"jets.{kind}.self_s"] = per_op_self(sel)
    out["jets.linalg.self_s"] = per_op_self(named("jets.jet_matrix_inverse", "jets.jet_matrix_det"))
    for nid, full in enumerate(names):
        if "@" in full:
            qual, space = full.split("@", 1)
            key = f"jets.{BY_SPACE[qual]}.{space}.self_s"
            out[key] = out.get(key, 0.0) + per_op_self(name == nid)
    out["jets.tables.built"] = float(np.count_nonzero(in_setup & named(TABLE_BUILD)))
    out["jets.tables.build_s"] = float(
        dur[in_setup & named(TABLE_BUILD, "jets.JetSpace.__init__")].sum()
    )

    for kind in ("evaluate", "evaluate_array", "evaluate_float"):
        sel = named(f"expr.{kind}")
        out[f"expr.{kind}.calls"] = per_op_calls(sel)
        out[f"expr.{kind}.self_s"] = per_op_self(sel)

    out["core.expansions"] = per_op_calls(named("core.TensorJets.__init__"))
    out["core.expansions_per_point"] = out["core.expansions"] * ops / points

    dln = in_op & named("core.dln_sigma")
    out["volume.sigma.calls"] = per_op_calls(named("core.sigma_value"))
    out["volume.dln_sigma.calls"] = float(np.count_nonzero(dln)) / ops
    out["volume.dln_sigma.incl_s"] = float(dur[dln].sum()) / ops
    bases = len(tracer.dln_sigma_bases)
    out["volume.dln_sigma.calls_per_base"] = np.count_nonzero(dln) / bases if bases else 0.0
    out["volume.quadratures"] = per_op_calls(named("volume.unit_set_volume"))

    for region, (region_layer, _) in REGIONS.items():
        if region_layer:
            sel = ((mask & tracer.bit(region)) != 0) & (span_layer == region_layer)
            out[f"{region}.self_s"] = per_op_self(sel)
    for call in ("restrict_fields", "fibre_snapshot", "s_third_covariant"):
        out[f"indicatrix.{call}.calls"] = per_op_calls(named(f"indicatrix.{call}"))
    out["checks.self_s"] = out["layer.checks.self_s"]
    out["cli.self_s"] = out["layer.cli.self_s"]
    out["cli.report_bytes"] = report_bytes / ops
    out["zoo.build_s"] = float(dur[in_setup & named("zoo.build")].sum())
    return {key: float(out.get(key, 0.0)) for key in PER_LAYER_UNITS}
