"""Spans and counters recorded from outside the library.

``Tracer.install()`` replaces the public names that callers look up from
module globals with timing wrappers, and ``uninstall()`` puts the originals
back, so untraced ops run the unmodified program.  Nothing inside
``qespair`` is edited: a span covers one call across a module boundary, and
counters are taken at the same boundaries.

Spans are timed in process CPU time, the clock the end-to-end metrics use.
Each span belongs to the layer (module) that defines the function it wraps.
Its self time is its duration minus the time covered by its child spans;
self times of all spans in an op add up to the traced op's duration.
Inclusive ``*_ms`` metrics count only the outermost span of a name, so a
recursive call (poly_phi_ces_model -> poly_phi_model) is not counted twice.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

LAYERS = ("cli", "families", "construct", "susy", "expressions", "functions", "verify")


def _size(x) -> int:
    shape = getattr(x, "shape", ())
    n = 1
    for dim in shape:
        n *= dim
    return n


class Tracer:
    def __init__(self):
        self._patched = []
        self._stack = []               # open spans: [name, layer, start_ns, child_ns]
        self._depth = defaultdict(int)
        self.reset()

    # -- per-op accumulators ---------------------------------------------------

    def reset(self):
        self.layer_self_ns = defaultdict(int)
        self.name_self_ns = defaultdict(int)
        self.name_incl_ns = defaultdict(int)
        self.counts = defaultdict(int)

    def _enter(self, name, layer):
        self._depth[name] += 1
        self._stack.append([name, layer, time.process_time_ns(), 0])

    def _exit(self):
        name, layer, start, child = self._stack.pop()
        duration = time.process_time_ns() - start
        self._depth[name] -= 1
        self.layer_self_ns[layer] += duration - child
        self.name_self_ns[name] += duration - child
        if self._depth[name] == 0:
            self.name_incl_ns[name] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def span(self, name, layer, fn, on_call=None):
        """Wrap fn in a span; on_call(args) runs first, for counters."""

        def wrapped(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            self._enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapped

    def counter(self, key, fn, points=False):
        """Wrap fn so each call adds 1, or the size of its argument, to key."""
        counts = self.counts

        def wrapped(x):
            counts[key] += _size(x) if points else 1
            return fn(x)

        return wrapped

    # -- wrappers for values the library returns -------------------------------

    def _generator(self, gen):
        """Count and time every jet-tree evaluation of a parsed generator."""

        def jet(fn):
            def count(args):
                self.counts["expressions.jet_calls"] += 1
                self.counts["expressions.jet_points"] += _size(args[0])
            return self.span("expressions.jet", "expressions", fn, count)

        return dataclasses.replace(gen, eval=jet(gen.eval), deriv1=jet(gen.deriv1),
                                   deriv2=jet(gen.deriv2), deriv3=jet(gen.deriv3))

    def _potentials(self, pair):
        def count(args):
            self.counts["susy.potential_points"] += _size(args[0])
        return dataclasses.replace(
            pair,
            v_minus=self.span("susy.potential", "susy", pair.v_minus, count),
            v_plus=self.span("susy.potential", "susy", pair.v_plus, count))

    def _cumulative_integral(self, original):
        tracer = self

        def factory(integrand, *args, **kwargs):
            counted = tracer.counter("functions.integrand_points", integrand, points=True)
            return _TracedIntegral(original(counted, *args, **kwargs), tracer)

        return factory

    def _auto_grid(self, original):
        def traced(model, *args, **kwargs):
            def counted(state):
                return dataclasses.replace(
                    state, psi=self.counter("verify.auto_grid_psi_calls", state.psi))
            model = dataclasses.replace(model, psi0=counted(model.psi0), psi1=counted(model.psi1))
            return original(model, *args, **kwargs)

        return self.span("verify.auto_grid", "verify", traced)

    def _eigensolve(self, original):
        def count(args):
            self.counts["verify.eigensolve_points"] += args[1].N
        return self.span("verify.eigensolve", "verify", original, count)

    # -- installation ---------------------------------------------------------

    def _patch(self, module, attr, replacement):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        from qespair import cli, construct, families, susy, verify

        def returning(name, layer, fn, convert):
            inner = self.span(name, layer, fn)
            return lambda *a, **k: convert(inner(*a, **k))

        self._patch(cli, "main", self.span("cli.main", "cli", cli.main))
        self._patch(cli, "make_model", self.span("cli.make_model", "cli", cli.make_model))
        self._patch(cli, "parse_generator", returning(
            "expressions.parse", "expressions", cli.parse_generator, self._generator))
        for module in (cli, verify):
            self._patch(module, "verify_model",
                        self.span("verify.verify_model", "verify", module.verify_model))
            self._patch(module, "auto_grid", self._auto_grid(module.auto_grid))
            self._patch(module, "eigensolve", self._eigensolve(module.eigensolve))
        self._patch(verify, "riccati_residual",
                    self.span("susy.riccati_residual", "susy", verify.riccati_residual))
        self._patch(cli, "cross_check_constructions", self.span(
            "construct.crosscheck", "construct", cli.cross_check_constructions))
        for module in (cli, construct, families):
            for attr in ("build_from_wplus", "build_from_phi"):
                self._patch(module, attr,
                            self.span("construct.build", "construct", getattr(module, attr)))
        for attr in ("poly_wplus_model", "poly_phi_model", "poly_phi_ces_model",
                     "sinh_wplus_model"):
            self._patch(families, attr,
                        self.span("families.build", "families", getattr(families, attr)))
        self._patch(construct, "pair_potentials", returning(
            "susy.pair_potentials", "susy", construct.pair_potentials, self._potentials))
        for module in (susy, construct):
            self._patch(module, "cumulative_integral",
                        self._cumulative_integral(module.cumulative_integral))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


class _TracedIntegral:
    """A CumulativeIntegral whose queries are spans and counted by points."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __call__(self, x):
        tracer = self._tracer
        tracer.counts["functions.cumint_calls"] += 1
        tracer.counts["functions.cumint_points"] += _size(x)
        tracer._enter("functions.cumint", "functions")
        try:
            return self._inner(x)
        finally:
            tracer._exit()

    def __getattr__(self, attr):
        return getattr(self._inner, attr)
