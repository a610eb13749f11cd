"""Outside-in tracing of tempora, and the per-layer metrics read from it.

:class:`Tracer` replaces every public function of every loaded
``tempora.*`` module, in each module namespace that binds it, with a
wrapper that records a span: name, parent span, start and end.  One
function gets one wrapper however many namespaces bind it, and a span is
named after the module that defines the function, so ``evaluate`` called
through ``tempora.axioms`` or ``tempora.cli`` is ``discounting.evaluate``.
Calls inside a module go through its globals and are traced as well.

One private function is wrapped on purpose: ``_minimize_on_interval``
is the minimiser's core, reached by maxmin without going through
``minimize_over_delta``; nothing public marks that boundary.

Spans stay in memory in typed arrays until the run ends.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

PRIVATE = {("tempora.discounting", "_minimize_on_interval")}

_FAMILY = {"Edu": "edu", "Maxmin": "maxmin", "Variational": "variational",
           "Inf": "patient", "Liminf": "patient", "BanachWindow": "patient",
           "Cesaro": "patient"}

#: Span names that carry a label taken from the call's arguments.
_LABELS = {
    "discounting.evaluate": lambda args, kw: _FAMILY.get(type(args[0]).__name__, "other"),
    "axioms.check_axiom": lambda args, kw: args[1] if len(args) > 1 else kw["axiom"],
}

#: Span names that carry a count taken from the call's result or arguments.
_COUNTS = {
    "discounting.discounted_value_grid": lambda args, kw, out: np.size(out),
    "eigen.invariant_structure": lambda args, kw, out: out.iterations,
    "eigen.builtin_operator": lambda args, kw, out: out.entries.nbytes,
    "eigen.adjoint": lambda args, kw, out: out.entries.nbytes,
}


def _short(fn) -> str:
    return fn.__module__.removeprefix("tempora.") + "." + fn.__name__


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack = [-1]
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn):
        base = _short(fn)
        label_of, count_of = _LABELS.get(base), _COUNTS.get(base)
        nid = self._id(base)
        ids = self._id
        name_append, parent_append = self.name.append, self.parent.append
        start_append, end_append, count_append = (self.start.append, self.end.append,
                                                  self.count.append)
        end, count, stack, now = self.end, self.count, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(end)
            name_append(nid if label_of is None else ids(f"{base}.{label_of(args, kwargs)}"))
            parent_append(stack[-1])
            count_append(0.0)
            end_append(0.0)
            stack.append(i)
            start_append(now())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = now()
                stack.pop()
            if count_of is not None:
                count[i] = count_of(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        wrappers: dict[object, object] = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "tempora" or modname.startswith("tempora.")):
                continue
            for attr, val in list(vars(mod).items()):
                if not isinstance(val, types.FunctionType):
                    continue
                if not val.__module__.startswith("tempora"):
                    continue
                if attr.startswith("_") and (val.__module__, val.__name__) not in PRIVATE:
                    continue
                if val not in wrappers:
                    wrappers[val] = self._wrap(val)
                self._patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count": np.frombuffer(self.count, dtype=np.float64).copy(),
        }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

DECODE = {"jsonio.load_json_file", "streams.stream_from_dict", "jsonio.criterion_from_dict",
          "jsonio.cost_from_dict", "jsonio.operator_from_dict", "jsonio.panel_from_dict"}
CODEC = {"streams.stream_from_dict", "streams.stream_to_dict"}
FAMILIES = ("edu", "maxmin", "variational", "patient")
#: The default battery's 13 axioms (itis runs as itis:scale:2) and the scan.
CHECK_IDS = ("monotonicity", "icrp", "convexity", "isu", "iou", "lipschitz",
             "normalization", "idis", "itis", "ifpis", "ipis", "patience",
             "time_invariance", "continuity_segment")


def _has_ancestor(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each span, whether some strict ancestor is in ``mask``."""
    out = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    idx = np.nonzero(anc >= 0)[0]
    while idx.size:
        hit = mask[anc[idx]]
        out[idx[hit]] = True
        anc[idx] = parent[anc[idx]]
        idx = idx[~hit & (anc[idx] >= 0)]
    return out


def layer_metrics(sp: dict[str, np.ndarray]) -> dict[str, tuple[float, str]]:
    names = [str(n) for n in sp["names"]]
    name, parent = sp["name"], sp["parent"]
    dur = sp["end"] - sp["start"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    self_t = dur - child

    def mask(pred) -> np.ndarray:
        ids = np.array([i for i, n in enumerate(names) if pred(n)], dtype=np.int32)
        return np.isin(name, ids)

    def is_(n: str) -> np.ndarray:
        return mask(lambda m: m == n)

    def ms(m) -> float:
        return float(self_t[m].sum() * 1e3)

    def calls(m) -> float:
        return float(np.count_nonzero(m))

    out: dict[str, tuple[float, str]] = {}
    m = is_("cli.main")
    out["cli.main_calls"], out["cli.self_ms"] = (calls(m), "count"), (ms(m), "ms")
    m = mask(lambda n: n in DECODE)
    out["jsonio.decode_calls"], out["jsonio.decode_ms"] = (calls(m), "count"), (ms(m), "ms")
    m = mask(lambda n: n.startswith("streams.") and n not in CODEC)
    out["streams.algebra_calls"], out["streams.algebra_ms"] = (calls(m), "count"), (ms(m), "ms")
    evaluate = mask(lambda n: n.startswith("discounting.evaluate."))
    for fam in FAMILIES:
        m = is_(f"discounting.evaluate.{fam}")
        out[f"discounting.evaluate_calls.{fam}"] = (calls(m), "count")
        out[f"discounting.evaluate_ms.{fam}"] = (ms(m), "ms")

    scalar = is_("discounting.discounted_value")
    grid = is_("discounting.discounted_value_grid")
    inner = is_("discounting._minimize_on_interval")
    in_min = _has_ancestor(parent, inner)
    out["discounting.dv_scalar_calls"] = (calls(scalar), "count")
    out["discounting.dv_scalar_ms"] = (ms(scalar), "ms")
    grids_in_min = calls(grid & in_min)
    out["discounting.dv_scalar_per_grid"] = (
        calls(scalar & in_min) / grids_in_min if grids_in_min else 0.0, "ratio")
    out["discounting.dv_grid_calls"] = (calls(grid), "count")
    out["discounting.dv_grid_points"] = (float(sp["count"][grid].sum()), "count")
    out["discounting.dv_grid_ms"] = (ms(grid), "ms")
    out["discounting.minimize_calls"] = (calls(inner), "count")
    out["discounting.minimize_ms"] = (ms(inner | is_("discounting.minimize_over_delta")), "ms")
    out["discounting.cost_eval_calls"] = (calls(is_("discounting.cost_eval")), "count")

    m = mask(lambda n: n.startswith("patient."))
    out["patient.value_calls"], out["patient.value_ms"] = (calls(m), "count"), (ms(m), "ms")

    check = mask(lambda n: n.startswith("axioms.check_axiom."))
    out["axioms.check_calls"] = (calls(check), "count")
    for cid in CHECK_IDS:
        # Inclusive time per axiom: the harness's own loop is nearly free,
        # so self time would say nothing about which axiom costs what.
        out[f"axioms.check_ms.{cid}"] = (float(dur[is_(f"axioms.check_axiom.{cid}")].sum() * 1e3), "ms")
    n_checks = calls(check)
    out["axioms.evals_per_check"] = (
        calls(evaluate & _has_ancestor(parent, check)) / n_checks if n_checks else 0.0, "ratio")

    rc = is_("panel.recover_cost")
    out["panel.recover_cost_calls"] = (calls(rc), "count")
    out["panel.recover_cost_ms"] = (ms(rc), "ms")
    out["panel.recover_cost_evals"] = (calls(evaluate & _has_ancestor(parent, rc)), "count")

    ops = is_("eigen.builtin_operator") | is_("eigen.adjoint")
    out["eigen.builtin_operator_ms"] = (ms(is_("eigen.builtin_operator")), "ms")
    out["eigen.operator_mb"] = (float(sp["count"][ops].max() / 2 ** 20) if ops.any() else 0.0,
                                "MB")
    inv = is_("eigen.invariant_structure")
    iters = float(sp["count"][inv].sum())
    out["eigen.invariant_structure_ms"] = (ms(inv), "ms")
    out["eigen.iterations"] = (iters, "count")
    out["eigen.us_per_iteration"] = (ms(inv) * 1e3 / iters if iters else 0.0, "us")
    return out


# ---------------------------------------------------------------------------
# import time
# ---------------------------------------------------------------------------

def importtime_ms(stderr: str) -> dict[str, float]:
    """Totals from ``python -X importtime`` output, in ms.

    ``total``: every import of the process (the top-level entries' cumulative
    times); ``numpy`` and ``scipy``: cumulative time of each package's
    outermost entries; ``tempora``: self time of tempora's own modules.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cum, name = line.split("|", 2)
        rows.append((len(name) - len(name.lstrip()), name.strip(),
                     int(head.split(":", 1)[1]), int(cum)))
    # Entries print children first; an entry's parent is the next entry
    # printed at a smaller depth.
    parent_pkg: list[str | None] = [None] * len(rows)
    pending: dict[int, list[int]] = {}
    for i, (depth, nm, _, _) in enumerate(rows):
        for d in [d for d in pending if d > depth]:
            for j in pending.pop(d):
                parent_pkg[j] = nm.split(".")[0]
        pending.setdefault(depth, []).append(i)
    top = min((r[0] for r in rows), default=0)
    res = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "tempora": 0.0}
    for (depth, nm, self_us, cum_us), ppkg in zip(rows, parent_pkg):
        pkg = nm.split(".")[0]
        if depth == top:
            res["total"] += cum_us / 1e3
        if pkg in ("numpy", "scipy") and ppkg != pkg:
            res[pkg] += cum_us / 1e3
        if pkg == "tempora":
            res["tempora"] += self_us / 1e3
    return res
