"""In-memory span tracer that wraps mal's layer entry points from outside.

Nothing under src/ is edited: install() swaps each anchor function for a
timing wrapper in every module that holds a reference to it, and uninstall()
puts the originals back.  An anchor that no longer exists is skipped and
reported, so a refactor that renames a helper loses that one counter instead
of breaking the run.  The counters ROADMAP item 2 must keep are anchored on
entry points meant to stay: the public FFT functions, lgmres and the two
operators handed to it, solve_epsilon_geodesic, epsilon_continuation,
competitor_paths, path_action, evaluate, random_band_limited, make_potential
and rearrange_values.

A span is (op, id, parent, name, start, end, size).  Spans stay in a list
while the run lasts; reduce() turns them into per-op layer counts and times.
A layer's self time is its span's duration minus the time of its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

NUMPY_FFT = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
SCIPY_FFT = NUMPY_FFT + ("hfft2", "ihfft2", "hfftn", "ihfftn", "dct", "idct",
                         "dst", "idst", "dctn", "idctn", "dstn", "idstn")


def _input_size(args, kwargs, result):
    x = args[0] if args else kwargs.get("x", kwargs.get("a"))
    return int(np.size(x))


def _result_len(args, kwargs, result):
    return len(result)


def _paths_and_knots(args, kwargs, result):
    return [len(result), sum(len(p.knots) - 2 for p in result)]


def _lgmres_info(args, kwargs, result):
    return int(result[1])


# (module, attribute, span name, size function); the size is a per-call
# number the reduction sums (elements, levels, knots, Krylov status).
ANCHORS = (
    [("numpy.fft", f, "grid.fft", _input_size) for f in NUMPY_FFT]
    + [("scipy.fft", f, "grid.fft", _input_size) for f in SCIPY_FFT]
    + [
        ("mal.grid", "dx", "grid.deriv", None),
        ("mal.grid", "dy", "grid.deriv", None),
        ("mal.grid", "laplacian", "grid.deriv", None),
        ("mal.grid", "ma_density", "grid.deriv", None),
        ("mal.grid", "make_potential", "grid.potential", None),
        ("mal.geodesics", "solve_epsilon_geodesic", "geodesics.solve", None),
        ("mal.geodesics", "epsilon_continuation", "geodesics.continuation", _result_len),
        ("scipy.sparse.linalg", "lgmres", "geodesics.lgmres", _lgmres_info),
        ("mal.fixtures", "random_band_limited", "fixtures.draw", None),
        ("mal.action", "competitor_paths", "action.competitors", _paths_and_knots),
        ("mal.action", "path_action", "action.path_action", None),
        ("mal.lagrangians", "evaluate", "lagrangians.evaluate", None),
        ("mal.rearrangement", "rearrange_values", "rearrangement.sort", _input_size),
        ("mal.transport", "PotentialPath.__init__", "transport.path", None),
        ("mal.cli", "parse_config", "cli.parse", None),
        ("mal.cli", "cmd_solve", "cli.solve", None),
    ]
)


class Tracer:
    """Records spans for calls into mal while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._names: list[str] = []
        self._patches: list = []

    def _span(self, name, fn, size_of=None):
        spans, stack, names = self.spans, self._stack, self._names
        leaf = name == "grid.fft"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a public FFT called from inside another one counts once
            if leaf and names and names[-1] == "grid.fft":
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            names.append(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                names.pop()
                spans[sid] = (self.op, sid, parent, name, t0, t1, 0)
            if size_of is not None:
                spans[sid] = (self.op, sid, parent, name, t0, t1, size_of(args, kwargs, result))
            return result

        return traced

    def _lgmres(self, fn):
        from scipy.sparse.linalg import LinearOperator, aslinearoperator

        outer = self._span("geodesics.lgmres", fn, _lgmres_info)

        def counted(op, name):
            op = aslinearoperator(op)
            return LinearOperator(op.shape, matvec=self._span(name, op.matvec), dtype=op.dtype)

        @functools.wraps(fn)
        def traced(A, b, *args, **kwargs):
            if kwargs.get("M") is not None:
                kwargs["M"] = counted(kwargs["M"], "geodesics.precond")
            return outer(counted(A, "geodesics.matvec"), b, *args, **kwargs)

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every anchor that exists in the loaded modules."""
        self.wrapped, self.missing = [], []
        for module_name, attr, name, size_of in ANCHORS:
            label = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if attr == "lgmres":
                wrapper = self._lgmres(original)
            else:
                wrapper = self._span(name, original, size_of)
            self._patch(owner, leaf, wrapper)
            # modules that imported the name hold their own reference
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not (mod_name == "mal" or mod_name.startswith("mal.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
            self.wrapped.append(label)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run(self, op: int, fn, *args):
        """Call fn(*args) traced, under a root span for op."""
        self.op = op
        self.install()
        try:
            return self._span("op", fn)(*args)
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def reduce(spans, ops) -> dict:
    """Per-op layer counts and times, averaged over the given op indices.

    Counts are exact integers summed over ops and divided by the op count,
    so they repeat exactly whenever the traced work repeats.
    """
    ops = set(ops)
    spans = [s for s in spans if s[0] in ops]
    names = {sid: name for _, sid, _, name, _, _, _ in spans}
    child = defaultdict(float)
    for _, _, parent, _, t0, t1, _ in spans:
        child[parent] += t1 - t0
    count, sizes = defaultdict(int), defaultdict(int)
    total, self_s = defaultdict(float), defaultdict(float)
    draws_in_competitors = accepted_knots = 0
    for _, sid, parent, name, t0, t1, size in spans:
        count[name] += 1
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child[sid]
        if name == "geodesics.lgmres":
            size = int(size != 0)  # lgmres info: nonzero when it did not converge
        elif name == "action.competitors":
            size, knots = size
            accepted_knots += knots
        elif name == "fixtures.draw" and names.get(parent) == "action.competitors":
            draws_in_competitors += 1
        sizes[name] += size
    k = len(ops)

    def per_op(table, name):
        return table[name] / k

    newton = count["geodesics.lgmres"]
    return {
        "grid.fft_calls": per_op(count, "grid.fft"),
        "grid.fft_points": per_op(sizes, "grid.fft"),
        "grid.fft_s": per_op(total, "grid.fft"),
        "grid.deriv_calls": per_op(count, "grid.deriv"),
        "grid.deriv_s": per_op(self_s, "grid.deriv"),
        "grid.potential_calls": per_op(count, "grid.potential"),
        "grid.potential_s": per_op(total, "grid.potential"),
        "geodesics.levels": per_op(sizes, "geodesics.continuation"),
        "geodesics.solves": per_op(count, "geodesics.solve"),
        "geodesics.newton_steps": per_op(count, "geodesics.lgmres"),
        "geodesics.matvecs": per_op(count, "geodesics.matvec"),
        "geodesics.precond_applies": per_op(count, "geodesics.precond"),
        "geodesics.matvecs_per_newton": count["geodesics.matvec"] / newton if newton else 0.0,
        "geodesics.krylov_unconverged": per_op(sizes, "geodesics.lgmres"),
        "geodesics.matvec_s": per_op(total, "geodesics.matvec"),
        "geodesics.precond_s": per_op(total, "geodesics.precond"),
        "geodesics.krylov_s": per_op(self_s, "geodesics.lgmres"),
        "geodesics.newton_s": per_op(self_s, "geodesics.solve"),
        "fixtures.draws": per_op(count, "fixtures.draw"),
        "fixtures.draw_s": per_op(total, "fixtures.draw"),
        "action.competitors": per_op(sizes, "action.competitors"),
        "action.knot_accept_ratio": (
            accepted_knots / draws_in_competitors if draws_in_competitors else 0.0
        ),
        "action.competitor_s": per_op(self_s, "action.competitors"),
        "action.path_actions": per_op(count, "action.path_action"),
        "action.path_action_s": per_op(self_s, "action.path_action"),
        "lagrangians.evaluations": per_op(count, "lagrangians.evaluate"),
        "lagrangians.evaluate_s": per_op(self_s, "lagrangians.evaluate"),
        "rearrangement.sorts": per_op(count, "rearrangement.sort"),
        "rearrangement.sorted_cells": per_op(sizes, "rearrangement.sort"),
        "rearrangement.sort_s": per_op(total, "rearrangement.sort"),
        "transport.paths": per_op(count, "transport.path"),
        "transport.path_s": per_op(total, "transport.path"),
        "cli.parse_s": per_op(total, "cli.parse"),
        "cli.write_s": per_op(self_s, "cli.solve"),
    }
