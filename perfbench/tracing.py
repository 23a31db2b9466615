"""Per-layer tracing of mazer from outside the package.

A Tracer wraps every public function of the seven mazer modules, in every
module that holds a binding to it: ``from .scattering import scatter``
copies the function into ``selection``, ``pump`` and ``cli``, so each copy
is replaced by the same wrapper.  Each call is a span with a name
(``<module>.<function>``), a duration and the span that called it.  Spans
are folded as they end into per-(parent, name) totals, which keeps memory
flat over the ~10^6 calls of one pass; a span's self time is its duration
minus the time of its child spans.  A layer is a module, and its self time
is the sum of the self times of its spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import mazer
from mazer import cli, core, oracle, pump, scattering, selection, ultracold

MODULES = (core, scattering, ultracold, oracle, pump, selection, cli)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)

SCATTER = "scattering.scatter"


class Tracer:
    def __init__(self) -> None:
        # (parent name or None, name) -> [calls, total_s, self_s]
        self.edges: dict[tuple[str | None, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.stack: list[list] = []  # [name, child_s] of each open span
        self.params_built = 0
        self.fallbacks = 0
        self.grid_points = 0
        self.n_max = 0
        self.scatter_points: set[int] = set()
        self.catalog_keys: set[tuple] = set()

    # --- hooks for the counts the layer metrics need -----------------------

    def _on_scatter(self, args, kwargs) -> None:
        k = args[0] if args else kwargs["k"]
        p = args[1] if len(args) > 1 else kwargs["params"]
        self.scatter_points.add(
            hash((k, p.detuning_ratio, p.coupling_length, p.photon_number))
        )

    def _on_catalog(self, args, kwargs) -> None:
        p = args[0] if args else kwargs["params"]
        self.catalog_keys.add((p.detuning_ratio, p.coupling_length, p.photon_number))

    def _on_solve(self, args, kwargs) -> None:
        if any(frame[0] == SCATTER for frame in self.stack):
            self.fallbacks += 1

    def _on_final(self, result) -> None:
        self.grid_points += len(result.grid)

    def _on_stationary(self, result) -> None:
        self.n_max = max(self.n_max, result.n_max)

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        before = {
            SCATTER: self._on_scatter,
            "ultracold.catalog_in_window": self._on_catalog,
            "oracle.solve": self._on_solve,
        }.get(name)
        after = {
            "selection.final_distribution": self._on_final,
            "pump.stationary_distribution": self._on_stationary,
        }.get(name)
        stack, edges = self.stack, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                edge = edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every public mazer function by its wrapper, then restore."""
        wrappers: dict = {}
        saved: list[tuple[object, str, object]] = []
        for module in (*MODULES, mazer):
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("mazer.")
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        post_init = core.SystemParams.__post_init__

        def counted_post_init(params) -> None:
            self.params_built += 1
            post_init(params)

        core.SystemParams.__post_init__ = counted_post_init
        try:
            yield self
        finally:
            core.SystemParams.__post_init__ = post_init
            for module, attr, obj in saved:
                setattr(module, attr, obj)

    # --- results -------------------------------------------------------------

    def by_name(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s] summed over parents."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, total, self_s) in self.edges.items():
            acc = out[name]
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
        names = self.by_name()

        def calls(name: str) -> int:
            return names[name][0] if name in names else 0

        def per_call(name: str, unit: float) -> float:
            n = calls(name)
            return unit * names[name][1] / n if n else 0.0

        self_s = defaultdict(float)
        for name, (_, _, s) in names.items():
            self_s[name.split(".", 1)[0]] += s
        n_scatter = calls(SCATTER)
        n_catalog = calls("ultracold.catalog_in_window")
        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m.update({
            "scattering.scatter.calls": n_scatter,
            "scattering.scatter.us_per_call": per_call(SCATTER, 1e6),
            "scattering.scatter.unique_frac":
                len(self.scatter_points) / n_scatter if n_scatter else 0.0,
            "scattering.fallbacks": self.fallbacks,
            "selection.final_distribution.s":
                names["selection.final_distribution"][1]
                if "selection.final_distribution" in names else 0.0,
            "selection.final_distribution.grid_points": self.grid_points,
            "selection.beam_transmissions.calls": calls("selection.beam_transmissions"),
            "selection.beam_transmissions.us_per_call":
                per_call("selection.beam_transmissions", 1e6),
            "pump.mean_p_em.calls": calls("pump.mean_p_em"),
            "pump.mean_p_em.ms_per_call": per_call("pump.mean_p_em", 1e3),
            "pump.p_em_ultracold.calls": calls("pump.p_em_ultracold"),
            "pump.stationary_distribution.n_max": self.n_max,
            "ultracold.catalog_in_window.calls": n_catalog,
            "ultracold.catalog_in_window.ms_per_call":
                per_call("ultracold.catalog_in_window", 1e3),
            "ultracold.catalog_in_window.unique_frac":
                len(self.catalog_keys) / n_catalog if n_catalog else 0.0,
            "ultracold.transmission_ultracold.calls":
                calls("ultracold.transmission_ultracold"),
            "ultracold.transmission_ultracold.us_per_call":
                per_call("ultracold.transmission_ultracold", 1e6),
            "oracle.solve.calls": calls("oracle.solve"),
            "oracle.solve.us_per_call": per_call("oracle.solve", 1e6),
            "core.params_built": self.params_built,
        })
        return m

    def print_edges(self, file=sys.stderr) -> None:
        """The span tree as (parent -> name) rows, largest self time first."""
        print(f"{'parent':<34} {'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10}",
              file=file)
        for (parent, name), (calls, total, self_s) in sorted(
            self.edges.items(), key=lambda item: -item[1][2]
        ):
            print(f"{parent or '-':<34} {name:<34} {calls:>9} {total:>10.4f} {self_s:>10.4f}",
                  file=file)
