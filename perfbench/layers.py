"""Per-layer tracing for the traced run, installed from outside `src/`.

`Tracer.install()` replaces the names that `corz.census` and `corz.cli`
import from the lower layers (and `numtheory`'s own `inv_alpha`, which
`core_main_term` calls) with timing wrappers.  Nothing under `src/` knows
about it, and the untraced run installs nothing.

Each wrapped call keeps a stack frame so that a layer's self time is its
spans' duration minus the part covered by child spans.  Generators are
timed per resumption, so a walk's time is the time spent producing items,
not the time its consumer spends on them.  Calls of the census, cli and
numtheory layers are also kept as individual spans (name, start, end,
parent); the hot leaves (`value`, walks, series, hooks) are aggregated.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MARK = "__perfbench_group__"

# wrapped name -> metric group; the layer is the part before the dot
GROUPS = {
    "_iter_partition_buffers": "partitions.walk",
    "enumerate_partitions": "partitions.walk",
    "hook_multiset": "partitions.hook",
    "count_p": "partitions.series",
    "count_p_regular": "partitions.series",
    "enumerate_cores": "abacus.enum",
    "count_cores": "abacus.series",
    "ColumnEvaluator": "characters.mn",
    "inv_alpha": "numtheory.inv_alpha",
    "core_main_term": "numtheory.main_term",
    "build_record": "census.record",
    "run_census": "census.self",
    "verify": "census.self",
    "write_records": "census.write",
    "main": "cli.self",
}
GENERATORS = {"_iter_partition_buffers", "enumerate_partitions", "enumerate_cores"}
SPAN_LAYERS = ("census", "cli", "numtheory")


class Stat:
    __slots__ = ("calls", "total", "self", "items", "failed", "zeros")

    def __init__(self) -> None:
        self.calls = self.items = self.failed = self.zeros = 0
        self.total = self.self = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stack: list[list[float]] = []  # [child seconds, span index]
        self.spans: list[tuple[str, float, float, int]] = []
        self.installed: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _call(self, fn, group: str, name: str):
        stat = self.stats[group]
        stack = self.stack
        spans = self.spans if group.split(".")[0] in SPAN_LAYERS else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            if spans is not None:
                frame[1] = len(spans)
                spans.append((name, 0.0, 0.0, parent))
            failed = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self += dt - frame[0]
                stat.failed += failed
                if stack:
                    stack[-1][0] += dt
                if spans is not None:
                    spans[frame[1]] = (name, t0, t0 + dt, parent)

        setattr(wrapper, MARK, group)
        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, fn, group: str):
        # walks call no wrapped name, so every resumption is a leaf span
        stat = self.stats[group]
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            busy = 0.0
            items = 0
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += clock() - t0
                        return
                    busy += clock() - t0
                    items += 1
                    yield item
            finally:
                stat.calls += 1
                stat.items += items
                stat.total += busy
                stat.self += busy
                if stack:
                    stack[-1][0] += busy

        setattr(wrapper, MARK, group)
        wrapper.__wrapped__ = fn
        return wrapper

    def _evaluator(self, cls, group: str):
        init = self._call(cls.__init__, group, "ColumnEvaluator")
        value = self._call(cls.value, group + ".value", "value")
        stat = self.stats[group + ".value"]

        class TracedColumnEvaluator(cls):
            __init__ = init

            def value(self, lam):
                v = value(self, lam)
                if v == 0:
                    stat.zeros += 1
                return v

        setattr(TracedColumnEvaluator, MARK, group)
        TracedColumnEvaluator.__wrapped__ = cls
        return TracedColumnEvaluator

    def wrap(self, name: str, obj):
        group = GROUPS[name]
        if name == "ColumnEvaluator":
            return self._evaluator(obj, group)
        if name in GENERATORS:
            return self._generator(obj, group)
        return self._call(obj, group, name)

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        from corz import census, cli, numtheory

        wrapped: dict[int, object] = {}
        for mod in (census, cli, numtheory):
            names = GROUPS if mod is not numtheory else ("inv_alpha", "core_main_term")
            for name in names:
                orig = mod.__dict__.get(name)
                if orig is None:
                    continue
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self.wrap(name, orig)
                self.installed.append((mod, name, orig))
                setattr(mod, name, wrapped[id(orig)])
        # `corz count` looks its functions up in a table built at import
        table = cli._COUNT_QUANTITIES
        for key, (argnames, fn) in list(table.items()):
            if fn is not None and id(fn) in wrapped:
                self.installed.append((table, key, (argnames, fn)))
                table[key] = (argnames, wrapped[id(fn)])

    def uninstall(self) -> None:
        for target, name, orig in reversed(self.installed):
            if isinstance(target, dict):
                target[name] = orig
            else:
                setattr(target, name, orig)
        self.installed.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-group counts and seconds, and the kept spans."""
        return {
            "groups": {
                g: {k: getattr(s, k) for k in Stat.__slots__}
                for g, s in sorted(self.stats.items())
            },
            "spans": self.spans,
        }


def wrapped_names() -> list[str]:
    """Names in corz.census, corz.cli and corz.numtheory that carry a trace
    wrapper; empty in an untraced run."""
    out = []
    for modname in ("corz.census", "corz.cli", "corz.numtheory"):
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if getattr(obj, MARK, None) is not None:
                out.append(f"{modname}.{name}")
        if modname == "corz.cli":
            for key, (_, fn) in mod._COUNT_QUANTITIES.items():
                if getattr(fn, MARK, None) is not None:
                    out.append(f"{modname}._COUNT_QUANTITIES[{key!r}]")
    return out
