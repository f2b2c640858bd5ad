"""Spans around skewdna's layer boundaries, recorded from outside the package.

``Tracer`` replaces each traced function by a timing wrapper in *every*
skewdna module namespace that binds it (``dna`` and ``analysis`` import
``remainder_membership`` and ``skew_shift`` by name, and
``verify.ALL_CHECKS`` holds the checks in a tuple), and puts every original
back on exit.

A span's self time is its duration minus the time its child spans cover.
Hot leaves (``right_divmod``, ``mul``, ``skew_shift``) keep no frame of
their own: each call adds its count and duration to its group and to the
enclosing span's child time.  Counters are taken from the arguments and the
result, so the package itself is not touched.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass
from math import inf
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str                 # skewdna submodule that defines the function
    name: str
    group: str = ""             # metric prefix; defaults to module.name
    leaf: bool = False
    count: Callable | None = None   # (stat, args, kwargs, result, exc) -> None
    key: Callable | None = None     # (args, kwargs) -> hashable, for repeat_frac


def _divmod_ops(stat, args, kwargs, result, exc):
    # schoolbook bound: one multiply-add per quotient coefficient and
    # divisor coefficient
    f, d = args[0], args[1]
    stat["coeff_ops"] += max(len(f) - len(d) + 1, 0) * len(d)


def _enum_key(args, kwargs):
    leading = kwargs.get("leading", args[2] if len(args) > 2 else "unit")
    return args[0], args[1], leading


def _enum_count(stat, args, kwargs, result, exc):
    if result is not None:  # a call refused by its budget tests nothing
        base = 16 if _enum_key(args, kwargs)[2] == "unit" else 4
        stat["candidates"] += base ** args[1]
        stat["found"] += len(result)


def _basis_count(stat, args, kwargs, result, exc):
    if result is not None:
        stat["basis_vectors"] += len(result)


def _code_key(args, kwargs):
    code = args[0]
    return code.n, code.generators


def _materialize_count(stat, args, kwargs, result, exc):
    if result is not None:
        stat["words"] += result.size
    elif type(exc).__name__ == "SizeCapExceeded":
        stat["cap_exceeded"] += 1


def _codeset_words(stat, args, kwargs, result, exc):
    stat["words"] += args[0].size


def _strings(stat, args, kwargs, result, exc):
    if result is not None:
        stat["strings"] += len(result)


TARGETS = (
    Target("skewpoly", "right_divmod", leaf=True, count=_divmod_ops),
    Target("skewpoly", "mul", leaf=True),
    Target("codes", "skew_shift", leaf=True),
    Target("codes", "enumerate_right_divisors", count=_enum_count, key=_enum_key),
    Target("codes", "span_basis", count=_basis_count),
    Target("codes", "materialize", count=_materialize_count, key=_code_key),
    Target("codes", "minimal_degree_scan", count=_codeset_words),
    Target("codes", "remainder_membership"),
    Target("dna", "is_reversible", "dna.closure", count=_codeset_words),
    Target("dna", "is_complement_closed", "dna.closure", count=_codeset_words),
    Target("dna", "is_reverse_complement_closed", "dna.closure", count=_codeset_words),
    Target("dna", "reversible_by_remainder"),
    Target("dna", "classify"),
    Target("dna", "encode_codeset", count=_strings),
    Target("analysis", "min_distance", count=_codeset_words),
    Target("analysis", "gray_image_report"),
    Target("verify", "run_all"),
    Target("cli", "main"),
)


class Tracer:
    """Context manager that traces TARGETS plus every ``verify.check_*``.

    ``stats[group]`` maps a quantity to its total: ``calls``, ``time``
    (inclusive seconds), ``self`` (seconds), ``repeats`` and the targets'
    own counters.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, defaultdict] = {}
        self._kinds: dict[str, tuple] = {}  # group -> (leaf, count), for overhead_s
        self._stack = [[0.0]]  # per open span: time covered by its children
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "skewdna" or name.startswith("skewdna.")}
        verify = mods["skewdna.verify"]
        targets = list(self.targets) + [
            Target("verify", name) for name in sorted(vars(verify))
            if name.startswith("check_") and callable(getattr(verify, name))]
        wrappers = {}  # id(original) -> (original, wrapper)
        for t in targets:
            orig = getattr(mods[f"skewdna.{t.module}"], t.name)
            wrappers[id(orig)] = (orig, self._wrap(orig, t))

        def swap(value):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                return hit[1]
            if isinstance(value, tuple):
                new = tuple(swap(v) for v in value)
                if any(a is not b for a, b in zip(new, value)):
                    return new
            return value

        try:
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    new = swap(value)
                    if new is not value:
                        self._undo.append((mod, name, value))
                        setattr(mod, name, new)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            mod, name, value = self._undo.pop()
            setattr(mod, name, value)

    def overhead_s(self, calls: int = 20_000, rounds: int = 5) -> float:
        """Estimated seconds the wrappers added to the traced calls.

        Each group's call count times the per-call cost of its kind of
        wrapper, measured on a no-op; the least of several rounds is kept,
        so a busy machine does not inflate it.  Span counters and repeat
        keys run a few thousand times per workload and are not costed.
        """
        costs = {}
        total = 0.0
        for group, kind in self._kinds.items():
            n = self.stats[group].get("calls", 0)
            if n:
                if kind not in costs:
                    costs[kind] = _per_call_cost(*kind, calls, rounds)
                total += n * costs[kind]
        return total

    def _wrap(self, fn, target: Target):
        group = target.group or f"{target.module}.{target.name}"
        stat = self.stats.setdefault(group, defaultdict(int))
        self._kinds[group] = (target.leaf, target.count if target.leaf else None)
        stack, count, key = self._stack, target.count, target.key

        if target.leaf:
            def leaf(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack[-1][0] += dt
                    stat["calls"] += 1
                    stat["time"] += dt
                    stat["self"] += dt
                    if count is not None:
                        count(stat, args, kwargs, None, None)

            return functools.wraps(fn)(leaf)

        seen = set()

        def span(*args, **kwargs):
            if key is not None:
                k = key(args, kwargs)
                if k in seen:
                    stat["repeats"] += 1
                else:
                    seen.add(k)
            frame = [0.0]
            stack.append(frame)
            result = error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                stat["calls"] += 1
                stat["time"] += dt
                stat["self"] += dt - frame[0]
                if count is not None:
                    count(stat, args, kwargs, result, error)

        return functools.wraps(fn)(span)


def _noop(*args, **kwargs):
    return None


_PROBE_ARGS = ((1,) * 8, (1,) * 3)  # a dividend and a divisor, for _divmod_ops


def _per_call_cost(leaf: bool, count, calls: int, rounds: int) -> float:
    wrapped = Tracer(targets=())._wrap(_noop, Target("probe", "noop", leaf=leaf, count=count))
    best = inf
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(calls):
            wrapped(*_PROBE_ARGS)
        t1 = perf_counter()
        for _ in range(calls):
            _noop(*_PROBE_ARGS)
        t2 = perf_counter()
        best = min(best, (t1 - t0) - (t2 - t1))
    return max(best, 0.0) / calls
