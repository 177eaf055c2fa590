"""In-memory span recorder that wraps the package's public functions.

While a pass is being recorded, every public function of the library
modules is replaced, at every module attribute that binds it, by a wrapper
that records a span.  That covers names imported into `cli`, calls that go
through another module's namespace (`events.render_sequence` reaching
`render_frame`) and a module's calls to its own globals (`scene`
auditing through `flow_between`).  `events.cKDTree` is wrapped to count
tree constructions.  The CLI layer itself is spanned by the benchmark
around each `cli.main` call, so `cli` functions are left alone.

A span is (name, start, end, parent span id, pass id, items); `items` is a
per-call work count for the functions listed in `ITEM_COUNTS`.  Spans stay
in memory and are written out once, when the run ends.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "cli", "scene", "sampling", "events", "voxel", "cmax",
    "mesh", "correlation", "fusion", "metrics", "io",
)


def _len_arg(index):
    return lambda args, result: len(args[index])


def _len_result(args, result):
    return len(result)


def _correlate_macs(args, result):
    channels, height, width = args[0].shape
    return args[2].active_count * channels * height * width


ITEM_COUNTS = {
    "scene.adaptive_timestamps": _len_result,
    "events.simulate": _len_result,
    "events.spatial_guided_subsample": _len_arg(0),
    "events.temporal_guided_subsample": _len_arg(0),
    "voxel.voxelize": _len_arg(0),
    "cmax.accumulate_iwe": lambda args, result: len(args[0].p),
    "cmax.select_best": _len_arg(0),
    "correlation.correlate": _correlate_macs,
    "io.write_evt1": _len_arg(1),
    "io.read_evt1": _len_result,
}

# Kept events per subsample call, recorded as a second count.
KEPT_COUNTS = ("events.spatial_guided_subsample", "events.temporal_guided_subsample")


def package_modules(package):
    """The package and every module directly inside it."""
    return [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
    ]


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "items", "kept")

    def __init__(self, name, start, parent, pass_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pass_id = pass_id
        self.items = 0
        self.kept = 0


class Tracer:
    """Records spans for the pass named by `recording`."""

    def __init__(self, package):
        self.spans: list[Span] = []
        self.trees_built: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._pass_id = None
        self._modules = package_modules(package)
        self._wrappers = {}
        for mod in self._modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS or layer == "cli":
                continue
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    self._wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, name):
        count = ITEM_COUNTS.get(name)
        kept = name in KEPT_COUNTS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.items = count(args, result)
            if kept:
                span.kept = len(result)
            return result

        return wrapper

    def _counting_tree(self, tree_cls):
        def make_tree(*args, **kwargs):
            self.trees_built[self._pass_id] += 1
            return tree_cls(*args, **kwargs)

        return make_tree

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a call into a layer."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def recording(self, pass_id):
        """Install the wrappers for one pass and remove them afterwards."""
        self._pass_id = pass_id
        for mod in self._modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        events = next(m for m in self._modules if m.__name__.endswith(".events"))
        self._installed.append((events, "cKDTree", events.cKDTree))
        events.cKDTree = self._counting_tree(events.cKDTree)
        try:
            yield
        finally:
            for mod, attr, obj in reversed(self._installed):
                setattr(mod, attr, obj)
            self._installed.clear()
            self._pass_id = None

    def write(self, path):
        """Write every span as one tab-separated line, with self time."""
        child_time = self._child_time()
        with open(path, "w") as fh:
            fh.write("id\tname\tpass\tparent\tstart_s\tend_s\tself_s\titems\n")
            for sid, sp in enumerate(self.spans):
                parent = "" if sp.parent is None else sp.parent
                self_s = sp.end - sp.start - child_time[sid]
                fh.write(
                    f"{sid}\t{sp.name}\t{sp.pass_id}\t{parent}\t{sp.start!r}\t"
                    f"{sp.end!r}\t{self_s!r}\t{sp.items}\n"
                )

    def _child_time(self):
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        return child

    def pass_totals(self, pass_id):
        """Per-name totals for one pass: inclusive s, self s, calls, items."""
        child_time = self._child_time()
        totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "items": 0, "kept": 0})
        for sid, sp in enumerate(self.spans):
            if sp.pass_id != pass_id:
                continue
            dur = sp.end - sp.start
            entry = totals[sp.name]
            entry["s"] += dur
            entry["self_s"] += dur - child_time[sid]
            entry["calls"] += 1
            entry["items"] += sp.items
            entry["kept"] += sp.kept
        return totals

    def layer_time(self, pass_id, layer):
        """Inclusive time of a layer's outermost spans in one pass."""
        prefix = layer + "."
        total = 0.0
        for sp in self.spans:
            if sp.pass_id != pass_id or not sp.name.startswith(prefix):
                continue
            if not any(a.name.startswith(prefix) for a in self._ancestors(sp)):
                total += sp.end - sp.start
        return total

    def _ancestors(self, span):
        parent = span.parent
        while parent is not None:
            span = self.spans[parent]
            yield span
            parent = span.parent

    def calls_under(self, pass_id, name, ancestor):
        """Number of `name` spans in one pass nested anywhere below `ancestor`."""
        return sum(
            1
            for sp in self.spans
            if sp.pass_id == pass_id
            and sp.name == name
            and any(a.name == ancestor for a in self._ancestors(sp))
        )
