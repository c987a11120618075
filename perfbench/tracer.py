"""Span tracing of fracgi from outside the package.

``Tracer.install`` replaces every public function of the package's modules,
and every public method of their public classes, with a wrapper that
records one span per call: name, start, end, parent span, run id and, for
a call that raised, the exception type. The wrappers are put in every
module namespace that holds the original object, so calls between modules
(``cli`` calling ``speckle.run_simulation``, names bound by
``from .objects import ...``) are traced too. Generator functions get one
span per resume, so the time a consumer spends between batches is not
charged to the generator.

Spans stay in memory and are written out once, by ``Tracer.dump``.
``layer_metrics`` turns a span list into self times and layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time

LAYERS = ("objects", "speckle", "moments", "metrics", "theory", "reports", "cli")

# closed forms of the binary Gamma-ratio theory; one call is one evaluation
CLOSED_FORMS = frozenset(
    "theory." + name
    for name in ("moment_background", "moment_signal", "visibility",
                 "peak_snr", "peak_snr_per_sqrt_n")
)


class Tracer:
    """In-memory span recorder. Spans are tuples
    (id, name, start, end, parent_id, run_id, error, frames, draws, nbytes);
    the last three are filled only for batches yielded by a generator."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None]:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, name, parent, start, error=None, batch=None) -> None:
        end = time.perf_counter()
        self._stack().pop()
        frames = draws = nbytes = 0
        if batch is not None:
            frames, draws, nbytes = batch
        with self._lock:
            self.spans.append(
                (span_id, name, start, end, parent, self.run_id, error, frames, draws, nbytes)
            )

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around code of the benchmark itself."""
        start = time.perf_counter()
        span_id, parent = self._open()
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(span_id, name, parent, start, error)

    def wrap(self, name: str, func):
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(name, func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            span_id, parent = self._open()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self._close(span_id, name, parent, start, type(exc).__name__)
                raise
            self._close(span_id, name, parent, start)
            return result

        return traced

    def _wrap_generator(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                start = time.perf_counter()
                span_id, parent = self._open()
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(span_id, name, parent, start)
                    return
                except BaseException as exc:
                    self._close(span_id, name, parent, start, type(exc).__name__)
                    raise
                self._close(span_id, name, parent, start, batch=_batch_size(item))
                yield item

        return traced

    def install(self, package) -> None:
        """Wrap the public API of every layer module of ``package``."""
        import importlib

        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        replacements = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replacements[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)
                ):
                    for meth, func in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(func):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", func))
        for namespace in [package, *modules]:
            for attr, value in list(vars(namespace).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    setattr(namespace, attr, replacements[id(value)][1])

    def dump(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "run_id",
                  "error", "frames", "draws", "bytes")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)


def _batch_size(item) -> tuple[int, int, int]:
    # SampleSet.iter_batches yields (first_index, reference_block, buckets)
    if isinstance(item, tuple) and len(item) == 3 and hasattr(item[1], "shape"):
        refs, buckets = item[1], item[2]
        return refs.shape[0], refs.size, refs.nbytes + buckets.nbytes
    return 0, 0, 0


def layer_metrics(spans: list[dict], n_orders: int) -> dict:
    """Self times per layer (``<layer>.self_s``) and the per-layer metrics
    of one traced pass.

    ``n_orders`` is the number of order pairs the workload reconstructs;
    each reference value streamed through ``moments.multi_order_pass``
    updates that many accumulators.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap. Spans
    whose name is not ``<layer>.<...>`` belong to the benchmark itself.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def layer(s):
        return s["name"].split(".", 1)[0]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def inclusive(pred) -> float:
        # spans matching pred that are not nested inside another match
        return sum(
            s["end"] - s["start"]
            for s in spans
            if pred(s) and not any(pred(a) for a in ancestors(s))
        )

    self_s = {name: 0.0 for name in LAYERS}
    for s in spans:
        if layer(s) in self_s:
            self_s[layer(s)] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)

    def named(*names):
        return lambda s: s["name"] in names

    def prefixed(prefix):
        return lambda s: s["name"].startswith(prefix)

    batches = [s for s in spans if s["name"] == "speckle.SampleSet.iter_batches"]
    frames = sum(s["frames"] for s in batches)
    draws = sum(s["draws"] for s in batches)
    batch_s = sum(s["end"] - s["start"] for s in batches)
    pass_ids = {s["id"] for s in spans if s["name"] == "moments.multi_order_pass"}
    updates = n_orders * sum(
        s["draws"] for s in batches if any(a["id"] in pass_ids for a in ancestors(s))
    )
    sweep_ids = {s["id"] for s in spans if s["name"] == "bench.sweep"}
    mg = [s for s in spans if s["name"] == "theory.moment_general"]

    return {
        **{f"{name}.self_s": value for name, value in self_s.items()},
        "speckle.batch_s": batch_s,
        "speckle.frames": frames,
        "speckle.unit_draws": draws,
        "speckle.ns_per_draw": batch_s / draws * 1e9 if draws else 0.0,
        "speckle.bytes_generated": sum(s["bytes"] for s in batches),
        "moments.pass_s": inclusive(named("moments.multi_order_pass")),
        "moments.finalize_s": inclusive(named("moments.MomentAccumulator.finalize")),
        "moments.pixel_order_updates": updates,
        "moments.bytes_accumulated": updates * 8,
        "metrics.image_metrics_s": inclusive(named("metrics.image_metrics")),
        "theory.sweep_s": sum(
            s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in spans
            if layer(s) == "theory" and any(a["id"] in sweep_ids for a in ancestors(s))
        ),
        "theory.closed_form_evals": sum(1 for s in spans if s["name"] in CLOSED_FORMS),
        "theory.predict_s": inclusive(named("theory.predict")),
        "theory.bucket_law_s": inclusive(
            lambda s: s["name"].startswith("theory.bucket_pdf_") or "Model." in s["name"]
        ),
        "theory.moment_general_s": inclusive(named("theory.moment_general")),
        "theory.moment_general_calls": len(mg),
        "theory.moment_general_failed": sum(1 for s in mg if s["error"]),
        "reports.write_s": inclusive(prefixed("reports.write_")),
        "objects.load_s": inclusive(prefixed("objects.")),
    }
