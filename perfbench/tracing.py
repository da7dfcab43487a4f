"""Traced run: spans around calls into evofam's public functions.

The tracer wraps each function in ``TRACED`` at every lookup site, that is
every evofam module global that refers to it (``evofam.cli.iterate_right``,
``evofam.lifted.iterate_right``, ``evofam.evolution.series_sum``, ...), so
calls between evofam modules are seen as well as calls from the CLI.  It
counts operator applications by swapping the model the CLI builds for one
whose ``unperturbed.apply`` and ``perturbation.apply`` are counting
wrappers.  Nothing under ``src/`` changes; leaving the ``installed()``
block puts every original back.

Spans (name, lookup site, start, end, parent, run id) stay in memory until
the benchmark writes them out.  A layer is an evofam module; its self time
is the time of its spans minus the time of their direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import time
from dataclasses import dataclass

from evofam.errors import EvofamError

LAYERS = ("cli", "config", "evolution", "honesty", "boltzmann", "fragmentation",
          "lifted")

# (module, public function) pairs timed as spans
TRACED = (
    ("config", "parse_config"),
    ("cli", "build_model"),
    ("cli", "build_oracle_model"),
    ("cli", "write_outputs"),
    ("evolution", "iterate_right"),
    ("evolution", "series_sum"),
    ("evolution", "duhamel_residual"),
    ("evolution", "cocycle_residual"),
    ("honesty", "mass_ledger"),
    ("honesty", "table_verdict"),
    ("boltzmann", "collision_model"),
    ("fragmentation", "fragmentation_model"),
    ("fragmentation", "grid_leakage"),
    ("lifted", "laplace_transform_check"),
    ("lifted", "resolvent_factorization_check"),
    ("lifted", "resolvent_series_check"),
)
# model-building functions whose result gets counting operator wrappers
MODEL_BUILDERS = ("cli.build_model", "cli.build_oracle_model")
# iterate_right called from the CLI builds the main table; the lifted checks
# and residuals call it (or the same recursion) for diagnostics only
MAIN_TABLE = ("evolution.iterate_right", "evofam.cli")
ROOT_SPAN = "cli.main"


@dataclass
class Span:
    span_id: int
    parent: int | None
    run_id: int
    name: str
    site: str
    start: float
    end: float = float("nan")


@dataclass
class Counters:
    """Operator applications of one traced CLI invocation."""

    u_apply: int = 0
    u_apply_main: int = 0
    b_apply: int = 0
    b_apply_s: float = 0.0
    b_flop: int = 0
    write_bytes: int = 0


class Tracer:
    """Collects spans and counters for traced CLI invocations."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, Counters] = {}
        self.errors: dict[int, dict[str, int]] = {}
        self._stack: list[Span] = []
        self._run_id = 0
        self._main_depth = 0

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, site: str):
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(len(self.spans), parent, self._run_id, name, site, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        main = (name, site) == MAIN_TABLE
        self._main_depth += main
        try:
            yield sp
        except Exception as exc:
            self._count_error(name, exc)
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self._main_depth -= main

    def _count_error(self, name: str, exc: Exception) -> None:
        # counted once, in the innermost layer it passed through
        if isinstance(exc, EvofamError) and not getattr(exc, "_perfbench_seen", False):
            exc._perfbench_seen = True
            layer = name.split(".", 1)[0]
            errors = self.errors.setdefault(self._run_id, {})
            errors[layer] = errors.get(layer, 0) + 1

    @contextlib.contextmanager
    def invocation(self, run_id: int):
        """Root span of one CLI invocation; its counters start at zero."""
        self._run_id = run_id
        self.counters[run_id] = Counters()
        with self.span(ROOT_SPAN, "perfbench"):
            yield self.counters[run_id]

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, site: str, fn):
        def traced(*args, **kwargs):
            with self.span(name, site):
                out = fn(*args, **kwargs)
                if name in MODEL_BUILDERS:
                    out = self._counted_model(out)
                elif name == "cli.write_outputs":
                    self._count_written(args[0], out)
                return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site of the traced functions, restore on exit."""
        import evofam.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "evofam" or n.startswith("evofam.")]
        patched = []
        try:
            for mod_name, fn_name in TRACED:
                original = getattr(sys.modules[f"evofam.{mod_name}"], fn_name)
                name = f"{mod_name}.{fn_name}"
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, original))
                            setattr(mod, attr, self._wrap(name, mod.__name__, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    # -- counting operator wrappers -------------------------------------

    def _counted_model(self, model):
        u_apply = model.unperturbed.apply
        if getattr(u_apply, "_perfbench_counted", False):
            return model  # build_model already returned it through build_oracle_model
        b_apply = model.perturbation.apply
        flop = 2 * model.grid.size ** 2  # one dense d x d matvec
        tracer = self

        def counted_u(t, s, u):
            c = tracer.counters[tracer._run_id]
            c.u_apply += 1
            if tracer._main_depth:
                c.u_apply_main += 1
            return u_apply(t, s, u)

        def counted_b(t, u):
            c = tracer.counters[tracer._run_id]
            start = time.perf_counter()
            try:
                return b_apply(t, u)
            finally:
                c.b_apply_s += time.perf_counter() - start
                c.b_apply += 1
                c.b_flop += flop

        counted_u._perfbench_counted = True
        return dataclasses.replace(
            model,
            unperturbed=dataclasses.replace(model.unperturbed, apply=counted_u),
            perturbation=dataclasses.replace(model.perturbation, apply=counted_b),
        )

    def _count_written(self, out_dir, names) -> None:
        c = self.counters[self._run_id]
        c.write_bytes += sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)

    # -- metrics -----------------------------------------------------------

    def metrics(self, run_id: int) -> dict:
        """Per-layer metrics of one traced invocation, by name."""
        spans = [s for s in self.spans if s.run_id == run_id]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out: dict[str, float] = {}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            mine = [s for s in spans if s.name == name]
            out[f"{name}.s"] = sum(s.end - s.start for s in mine)
            out[f"{name}.calls"] = len(mine)
        errors = self.errors.get(run_id, {})
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                (s.end - s.start) - child_time.get(s.span_id, 0.0)
                for s in spans if s.name.split(".", 1)[0] == layer)
            out[f"{layer}.errors"] = errors.get(layer, 0)
        root = [s for s in spans if s.name == ROOT_SPAN]
        out["traced_run_s"] = sum(s.end - s.start for s in root)
        c = self.counters[run_id]
        out["evolution.u_apply.calls"] = c.u_apply
        out["evolution.b_apply.calls"] = c.b_apply
        out["evolution.b_apply.s"] = c.b_apply_s
        out["evolution.b_apply.flop_computed"] = c.b_flop
        out["evolution.useful_step_ratio"] = c.u_apply_main / c.u_apply if c.u_apply else 0.0
        out["cli.write_outputs.bytes"] = c.write_bytes
        return out

    def span_records(self) -> list:
        return [dataclasses.asdict(s) for s in self.spans]
