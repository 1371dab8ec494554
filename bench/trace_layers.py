"""Outside-in layer tracer for the fracgreen benchmark.

The tracer wraps the public functions of each fracgreen module from the
outside and rebinds every name that points at them, in every loaded
``fracgreen`` module (so calls made through ``from .x import f`` bindings are
seen too). Nothing in the library is edited; ``uninstall`` puts every
original object back.

Each wrapped call records one span (name, start, end, parent) in flat
in-memory arrays, and bumps counters at the same boundary: integrand nodes
and refinement rounds of every adaptive panel integral (by wrapping its
``fn`` argument), evaluations and an input census of ``sphere_mean_power``,
evaluations of every field profile, and hits of the potential cache. A
layer's self time is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: adaptive-integral labels reported as per-layer metrics
ADAPTIVE_LABELS = (
    "flap-center", "flap-inner", "flap-outer", "trunc-inner", "trunc-outer",
    "radial-singular", "energy-outer", "potential-1d", "potential-pair",
    "delta-strict", "green-time-quadrature",
)

#: (module, function) pairs timed as plain spans, metric prefix = layer name
TIMED = {
    "quadrature": ("sphere_pair_integral", "frac_laplacian_at_detailed",
                   "truncation_correction_detailed",
                   "integrate_radial_singular"),
    "operator": ("energy_form", "hardy_weight_integral",
                 "fundamental_residual"),
    "potentials": ("green_potential_detailed", "origin_slope_fit",
                   "hardy_integrability_check", "delta_identity_check"),
    "kernels": ("green_time_integral_quadrature", "green_surrogate_product",
                "green_surrogate_expanded"),
    "params": ("gamma_of_theta",),
    "cli": ("run_verify",),
}


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.worst: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: span time minus child-span time."""
        if not self.start:
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=dur.size)
        per_name = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                               weights=dur - covered,
                               minlength=len(self.names))
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the spans out (called once, when the traced pass ends)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32))

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, count=None):
        nid = self._nid(name)
        calls = name + ".calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _adaptive(self, fn):
        sig = inspect.signature(fn)
        counts, worst = self.counts, self.worst

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = "quadrature.adaptive." + (a["label"] or "anonymous")
            integrand = a["fn"]
            last = [0]

            def counted(nodes):
                n = int(np.size(nodes))
                counts[key + ".rounds"] += 1
                counts[key + ".nodes"] += n
                last[0] = n
                return integrand(nodes)

            a["fn"] = counted
            counts[key + ".calls"] += 1
            idx = self._open(self._nid(key))
            try:
                val, err = fn(*bound.args, **bound.kwargs)
            finally:
                self._close(idx)
                counts["quadrature.adaptive.final_nodes"] += last[0]
            target = a["quad"].rel_tol * max(abs(val), a["scale_hint"], 1e-300)
            worst[key + ".worst_defect_ratio"] = max(
                worst[key + ".worst_defect_ratio"], err / target)
            return val, err

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _sphere_census(counts):
        def count(args, kwargs, out):
            lam, rho, r, dim = (list(args) + [None] * 4)[:4]
            lam = kwargs.get("lam", lam)
            rho = kwargs.get("rho", rho)
            r = np.asarray(kwargs.get("r", r), dtype=float)
            dim = kwargs.get("dim", dim)
            n = int(np.size(out))
            key = "quadrature.sphere_mean_power"
            counts[key + ".evals"] += n
            if dim == 1:
                return
            z = np.broadcast_to(
                (np.minimum(rho, r) / np.maximum(rho, r)) ** 2, np.shape(out))
            # b = c in 2F1(lam/2, (lam-N)/2 + 1; N/2; z) makes it elementary
            if (lam - dim) / 2.0 + 1.0 != dim / 2.0:
                counts[key + ".generic_evals"] += n
            counts[key + ".z_ge_0.5"] += int(np.count_nonzero(z >= 0.5))
            counts[key + ".z_ge_0.999"] += int(np.count_nonzero(z >= 0.999))
            counts[key + ".census_evals"] += n
        return count

    @staticmethod
    def _evals(key, counts):
        def count(args, kwargs, out):
            counts[key] += int(np.size(out))
        return count

    def _cache_lookup(self, fn):
        counts = self.counts

        def evaluate(field, *args, **kwargs):
            before = len(field.eval_cache)
            out = fn(field, *args, **kwargs)
            counts["potentials.PotentialField.lookups"] += 1
            if len(field.eval_cache) == before:
                counts["potentials.PotentialField.hits"] += 1
            return out

        evaluate.__wrapped__ = fn
        return evaluate

    # -- install / uninstall -----------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every fracgreen module-level name bound to `original` at
        `replacement`, remembering the old binding."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fracgreen"
                                   or mod_name.startswith("fracgreen.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        fg = {m: importlib.import_module("fracgreen." + m)
              for m in ("quadrature", "operator", "potentials", "kernels",
                        "params", "cli", "fields")}
        quad = fg["quadrature"]
        self._rebind(quad.adaptive_panel_integral,
                     self._adaptive(quad.adaptive_panel_integral))
        self._rebind(quad.sphere_mean_power, self._timed(
            "quadrature.sphere_mean_power", quad.sphere_mean_power,
            self._sphere_census(self.counts)))
        for layer, names in TIMED.items():
            for name in names:
                fn = getattr(fg[layer], name, None)
                if fn is not None:
                    self._rebind(fn, self._timed(f"{layer}.{name}", fn))
        pot_cls = fg["potentials"].PotentialField
        self._patch_attr(pot_cls, "evaluate",
                         self._cache_lookup(pot_cls.evaluate))
        stack = [fg["fields"].RadialField]
        while stack:
            cls = stack.pop()
            stack.extend(cls.__subclasses__())
            if "profile" in cls.__dict__:
                self._patch_attr(cls, "profile", self._timed(
                    "fields.profile", cls.__dict__["profile"],
                    self._evals("fields.profile.evals", self.counts)))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, overhead_frac: float) -> dict:
        """Every per-layer metric, by name, with its unit."""
        c, selfs = self.counts, self.self_seconds()
        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        for label in ADAPTIVE_LABELS:
            key = "quadrature.adaptive." + label
            for field in ("calls", "nodes", "rounds"):
                put(f"{key}.{field}", c[f"{key}.{field}"], "count")
            put(key + ".s", selfs.get(key, 0.0), "s")
            put(key + ".worst_defect_ratio",
                self.worst[key + ".worst_defect_ratio"], "ratio")
        total_nodes = sum(v for k, v in c.items()
                          if k.startswith("quadrature.adaptive.")
                          and k.endswith(".nodes"))
        put("quadrature.adaptive.useful_node_ratio",
            c["quadrature.adaptive.final_nodes"] / total_nodes
            if total_nodes else 0.0, "ratio")

        smp = "quadrature.sphere_mean_power"
        evals = c[smp + ".evals"]
        put(smp + ".calls", c[smp + ".calls"], "count")
        put(smp + ".evals", evals, "count")
        put(smp + ".s", selfs.get(smp, 0.0), "s")
        put(smp + ".us_per_eval",
            1e6 * selfs.get(smp, 0.0) / evals if evals else 0.0, "us")
        census = c[smp + ".census_evals"]
        for share, key in (("generic_share", "generic_evals"),
                           ("z_ge_0.5_share", "z_ge_0.5"),
                           ("z_ge_0.999_share", "z_ge_0.999")):
            put(f"{smp}.{share}",
                c[f"{smp}.{key}"] / census if census else 0.0, "ratio")

        for layer, names in TIMED.items():
            for name in names:
                key = f"{layer}.{name}"
                if key != "cli.run_verify":
                    put(key + ".calls", c[key + ".calls"], "count")
                put(key + ".s", selfs.get(key, 0.0), "s")

        lookups = c["potentials.PotentialField.lookups"]
        put("potentials.PotentialField.hit_ratio",
            c["potentials.PotentialField.hits"] / lookups if lookups else 0.0,
            "ratio")
        put("fields.profile.calls", c["fields.profile.calls"], "count")
        put("fields.profile.evals", c["fields.profile.evals"], "count")
        put("fields.profile.s", selfs.get("fields.profile", 0.0), "s")
        put("trace.overhead_frac", overhead_frac, "ratio")
        return out
