"""Per-layer tracing of fano2ray from outside the package.

A :class:`Tracer` replaces public functions of the six fano2ray modules with
timing wrappers, everywhere the function object is bound: the defining
module, the package namespace and every module that imported it by name
(``linkengine`` imports ``build_model``, ``cli`` imports ``singular_locus``).
Private helpers are not wrapped, so their time lands in the self time of the
public caller.  Each call records one span ``[name, start_ns, end_ns,
parent]``; spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time

MODULES = ("catalog", "singular", "toric2ray", "linkengine", "exclusion", "cli")

#: Wrapped functions, ``<module>.<function>``: the package's ``__all__`` API
#: plus ``singular.locate`` and the CLI entry points.
TRACED = (
    "catalog.load_catalog",
    "catalog.family",
    "catalog.fano_index",
    "catalog.anticanonical_cube",
    "catalog.monomial_support",
    "catalog.well_form_weights",
    "singular.singular_locus",
    "singular.locate",
    "singular.normalize_terminal",
    "singular.blowup_weights",
    "toric2ray.build_model",
    "toric2ray.well_form_model",
    "toric2ray.restrict_walk",
    "toric2ray.ambient_walk",
    "toric2ray.divisorial_target",
    "toric2ray.minus_k",
    "toric2ray.movable_position",
    "linkengine.run_game",
    "linkengine.needs_unprojection",
    "linkengine.unproject",
    "linkengine.verify_tables",
    "exclusion.smooth_point_test",
    "exclusion.curve_test",
    "exclusion.fibration_witness",
    "exclusion.solidity_summary",
    "cli.main",
    "cli.run",
    "cli.serialize",
)


def _equation_terms(model) -> int:
    return sum(len(eq.support) for eq in model.equations)


def _indeterminate(steps) -> int:
    return sum(step.restricted_kind == "indeterminate" for step in steps)


def _utf8_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


#: Counters read off return values: span name -> ((counter, measure), ...).
RESULT_COUNTERS = {
    "catalog.monomial_support": (("catalog.monomial_support.terms", len),),
    "toric2ray.build_model": (("toric2ray.equation_terms", _equation_terms),),
    "toric2ray.restrict_walk": (
        ("toric2ray.walls", len),
        ("toric2ray.indeterminate_walls", _indeterminate),
    ),
    "cli.serialize": (("cli.output_bytes", _utf8_bytes),),
}


class Tracer:
    """Installs timing wrappers, records spans and counters, uninstalls."""

    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _bindings(self, original):
        """Every (module, attribute) of the package bound to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "fano2ray":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    yield mod, attr

    def install(self) -> None:
        for name in self.names:
            mod_name, func_name = name.split(".")
            module = sys.modules[f"fano2ray.{mod_name}"]
            original = getattr(module, func_name)
            wrapper = self._wrap(name, original)
            for mod, attr in self._bindings(original):
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, original):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        raised = self.raised
        measures = RESULT_COUNTERS.get(name, ())
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                raised[name] = raised.get(name, 0) + 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            for counter, measure in measures:
                counters[counter] = counters.get(counter, 0) + measure(result)
            return result

        return functools.wraps(original)(wrapper)

    def reset(self) -> None:
        """Drop recorded spans and counters (between set-up and the pass)."""
        self.spans.clear()
        self.counters.clear()
        self.raised.clear()


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` are ``[name, start, end, parent_index]``.  Calls are synchronous,
    so the children of a span lie inside it one after another.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def per_function(spans) -> dict[str, tuple[int, int]]:
    """``name -> (calls, self_ns)`` over all spans."""
    table: dict[str, list[int]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = table.setdefault(span[0], [0, 0])
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in table.items()}


def layer_metrics(tracer: Tracer, load_catalog_self_ns: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (units as in BENCHMARK.json)."""
    table = per_function(tracer.spans)

    def calls(name: str) -> int:
        return table.get(name, (0, 0))[0]

    def self_ms(name: str) -> float:
        return table.get(name, (0, 0))[1] / 1e6

    out: dict[str, float] = {}
    for name in (
        "catalog.monomial_support",
        "singular.singular_locus",
        "singular.blowup_weights",
        "singular.normalize_terminal",
        "toric2ray.build_model",
        "toric2ray.well_form_model",
        "toric2ray.restrict_walk",
        "toric2ray.ambient_walk",
        "toric2ray.divisorial_target",
        "toric2ray.movable_position",
        "linkengine.run_game",
        "linkengine.needs_unprojection",
        "linkengine.unproject",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_ms"] = self_ms(name)
    for counter in (
        "catalog.monomial_support.terms",
        "toric2ray.equation_terms",
        "toric2ray.walls",
        "toric2ray.indeterminate_walls",
        "cli.output_bytes",
    ):
        out[counter] = tracer.counters.get(counter, 0)
    out["catalog.load_catalog.self_ms"] = load_catalog_self_ns / 1e6
    out["singular.rejected"] = tracer.raised.get("singular.singular_locus", 0)
    out["linkengine.verify_tables.self_ms"] = self_ms("linkengine.verify_tables")
    games = calls("linkengine.run_game")
    out["linkengine.builds_per_game"] = calls("toric2ray.build_model") / games if games else 0.0
    out["cli.run.self_ms"] = self_ms("cli.run")
    out["cli.serialize.self_ms"] = self_ms("cli.serialize")

    module_ns = dict.fromkeys(MODULES, 0)
    for name, (_, own) in table.items():
        module_ns[name.split(".")[0]] += own
    total = sum(module_ns.values())
    for module, own in module_ns.items():
        out[f"{module}.self_ms"] = own / 1e6
        out[f"{module}.share"] = own / total if total else 0.0
    return out
