"""In-memory span tracer for the projchan benchmark.

`Tracer.install()` replaces, from outside the package, every public function of
the projchan modules (and every other module's binding of the same object,
since modules bind callees with `from .x import y`), a few named methods, and
the `np.einsum` / `np.linalg.eigh` / `np.linalg.eigvalsh` that projchan code
reaches through its module-level `np`. Each call records one span: kind,
parent span, start and end. `uninstall()` puts every original back.

Spans are kept in flat arrays and written out once, when the run ends.
`round_metrics()` turns the spans of one round into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import inspect
import time
import types
from array import array

import numpy as np

LAYERS = ("linalg", "channels", "zoo", "entropy", "additivity", "capacity",
          "eof", "sampling", "reporting", "cli")

# Methods traced besides module-level functions: (module, class, method, kind).
METHODS = (
    ("channels", "QuantumChannel", "apply_raw", "channels.apply_raw"),
    ("channels", "QuantumChannel", "apply_adjoint_raw", "channels.apply_adjoint_raw"),
    ("channels", "DensityMatrix", "__init__", "channels.DensityMatrix"),
    ("capacity", "FiniteGroup", "average", "capacity.twirl.FiniteGroup"),
    ("capacity", "SU2Euler", "average", "capacity.twirl.SU2Euler"),
    ("capacity", "BlockUnitaryHaar", "average", "capacity.twirl.BlockUnitaryHaar"),
)

# Optimizer entry points: each call is one entropy "run".
RUNS = ("entropy.min_output_entropy", "entropy.max_output_norm")

PER_LAYER = (
    "linalg.einsum_calls", "linalg.einsum_s", "linalg.eigh_calls", "linalg.eigh_s",
    "linalg.partial_trace_calls", "linalg.partial_trace_s",
    "channels.apply_calls", "channels.apply_s", "channels.applies_per_start",
    "channels.state_validations", "channels.state_validation_s",
    "channels.extract_s", "channels.tensor_s",
    "entropy.runs", "entropy.repeated_runs", "entropy.starts", "entropy.self_s",
    "additivity.product_map_calls", "additivity.product_map_s", "additivity.self_s",
    "capacity.holevo_chi_calls", "capacity.holevo_chi_s", "capacity.twirl_s",
    "capacity.covariance_s",
    "eof.self_s",
    "sampling.draw_calls", "sampling.draw_s",
    "zoo.build_s",
    "cli.self_s",
    "reporting.serialize_s",
    "trace.overhead_s",
)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "channels.applies_per_start":
        return "ratio"
    return "count"


def _freeze(value):
    """Hashable content key for call arguments (arrays by their bytes)."""
    if isinstance(value, np.ndarray):
        return (value.shape, hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest())
    if isinstance(value, (tuple, list)):
        return tuple(_freeze(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _freeze(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"projchan.{name}") for name in LAYERS}
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # one entry per optimizer run: (span index, starts, repeated in its task)
        self.runs: list[tuple[int, int, bool]] = []
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def kind_id(self, name: str) -> int:
        if name not in self._kind_ids:
            self._kind_ids[name] = len(self.kinds)
            self.kinds.append(name)
        return self._kind_ids[name]

    def _open(self, k: int) -> int:
        i = len(self.kind)
        self.kind.append(k)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        k = self.kind_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(k)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_run(self, fn, name: str):
        """Optimizer entry point: also record its starts and whether the same
        (channel, alpha, config) already ran in the current task."""
        traced = self.wrap(fn, name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            index = len(self.kind)
            report = traced(*args, **kwargs)
            key = (name,) + _freeze(tuple(sig.bind(*args, **kwargs).arguments.values()))
            self.runs.append((index, int(report.starts), key in self._seen))
            self._seen.add(key)
            return report

        return run

    def begin_task(self) -> None:
        """Repeated optimizer runs are counted within one task."""
        self._seen = set()

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around benchmark code, e.g. a whole task."""
        i = self._open(self.kind_id(name))
        try:
            yield
        finally:
            self._close(i)

    # -- installation ------------------------------------------------------

    def _set(self, target, attr, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        replaced = {}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    kind = f"{layer}.{name}"
                    replaced[id(obj)] = (self._wrap_run if kind in RUNS else self.wrap)(obj, kind)
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])
        for layer, cls_name, meth, kind in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            self._set(cls, meth, self.wrap(cls.__dict__[meth], kind))
        self._install_numpy()

    def _install_numpy(self) -> None:
        """Give projchan modules a copy of numpy whose einsum and Hermitian
        eigensolvers are traced; numpy itself stays untouched."""
        np_proxy = types.ModuleType("numpy")
        np_proxy.__dict__.update(np.__dict__)
        np_proxy.einsum = self.wrap(np.einsum, "linalg.np.einsum")
        la_proxy = types.ModuleType("numpy.linalg")
        la_proxy.__dict__.update(np.linalg.__dict__)
        la_proxy.eigh = self.wrap(np.linalg.eigh, "linalg.np.eigh")
        la_proxy.eigvalsh = self.wrap(np.linalg.eigvalsh, "linalg.np.eigvalsh")
        np_proxy.linalg = la_proxy
        for mod in self.modules.values():
            if vars(mod).get("np") is np:
                self._set(mod, "np", np_proxy)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- output ------------------------------------------------------------

    def mark(self) -> int:
        return len(self.kind)

    def save(self, path) -> None:
        np.savez(path, kinds=np.array(self.kinds), kind=np.frombuffer(self.kind, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def round_metrics(self, lo: int, hi: int) -> dict:
        """Per-layer metrics of the spans recorded in [lo, hi), one round."""
        kind = np.frombuffer(self.kind, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        par = np.where(par >= lo, par - lo, -1)
        dur = np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi]
        n = len(kind)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        layer_of = np.array([k.split(".")[0] for k in self.kinds])

        def where(pred):
            return np.isin(kind, [i for i, k in enumerate(self.kinds) if pred(k)])

        def mask(*kinds):
            return where(lambda k: k in kinds)

        def outer_time(m):
            # spans of the group not nested directly in another of the group
            parent_in = np.zeros(n, bool)
            parent_in[has_parent] = m[par[has_parent]]
            return float(dur[m & ~parent_in].sum())

        def layer_self(layer):
            return float(self_time[layer_of[kind] == layer].sum())

        runs = [(i - lo, s, rep) for i, s, rep in self.runs if lo <= i < hi]
        starts = sum(s for _, s, _ in runs)
        in_run = np.zeros(n, bool)
        in_run[[i for i, _, _ in runs]] = True
        under_run = np.zeros(n, bool)
        anc = par.copy()
        while (anc >= 0).any():
            live = anc >= 0
            under_run[live] |= in_run[anc[live]]
            anc[live] = par[anc[live]]

        einsum = mask("linalg.np.einsum")
        eigh = mask("linalg.np.eigh", "linalg.np.eigvalsh")
        ptrace = mask("linalg.partial_trace")
        apply = mask("channels.apply_raw", "channels.apply_adjoint_raw")
        dm = mask("channels.DensityMatrix")
        pmap = mask("additivity.apply_product_map")
        chi = mask("capacity.holevo_chi")
        twirl = mask("capacity.twirl.FiniteGroup", "capacity.twirl.SU2Euler",
                     "capacity.twirl.BlockUnitaryHaar")
        draws = where(lambda k: k.startswith("sampling."))
        report = where(lambda k: k.startswith("reporting."))
        return {
            "linalg.einsum_calls": int(einsum.sum()),
            "linalg.einsum_s": outer_time(einsum),
            "linalg.eigh_calls": int(eigh.sum()),
            "linalg.eigh_s": outer_time(eigh),
            "linalg.partial_trace_calls": int(ptrace.sum()),
            "linalg.partial_trace_s": outer_time(ptrace),
            "channels.apply_calls": int(apply.sum()),
            "channels.apply_s": outer_time(apply),
            "channels.applies_per_start": float((apply & under_run).sum() / starts) if starts else 0.0,
            "channels.state_validations": int(dm.sum()),
            "channels.state_validation_s": outer_time(dm),
            "channels.extract_s": outer_time(mask("channels.extract_projective_form")),
            "channels.tensor_s": outer_time(mask("channels.tensor_channels")),
            "entropy.runs": len(runs),
            "entropy.repeated_runs": sum(rep for _, _, rep in runs),
            "entropy.starts": starts,
            "entropy.self_s": layer_self("entropy"),
            "additivity.product_map_calls": int(pmap.sum()),
            "additivity.product_map_s": outer_time(pmap),
            "additivity.self_s": layer_self("additivity"),
            "capacity.holevo_chi_calls": int(chi.sum()),
            "capacity.holevo_chi_s": outer_time(chi),
            "capacity.twirl_s": outer_time(twirl),
            "capacity.covariance_s": outer_time(mask("capacity.verify_weak_covariance")),
            "eof.self_s": layer_self("eof"),
            "sampling.draw_calls": int(draws.sum()),
            "sampling.draw_s": outer_time(draws),
            "zoo.build_s": outer_time(mask("zoo.build")),
            "cli.self_s": layer_self("cli"),
            "reporting.serialize_s": outer_time(report),
        }
