"""Per-layer tracing of tnomial from outside the package.

``Tracer.install`` wraps the public functions of every layer module, plus
the ring multiplications and ``IdentityReport.to_dict``, and rebinds each
wrapper wherever the original is bound across ``tnomial.*`` (for example
both ``tnomial.coeff_recurrence`` and ``tnomial.suites.coeff_recurrence``).
``uninstall`` puts the originals back.

Each call records one span: name, start, end, parent span and request id.
Spans stay in memory until the request ends.  A layer's self time is its
span's duration minus the part of it that child spans cover.  Counters are
taken at the same boundaries: result bits of the coefficient routes, items
yielded by generators, reports handed out by the suites layer, and
repeated ``coeff_recurrence`` arguments within one request.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

from reference import bits

LAYERS = ("rings", "sequences", "coefficients", "identities", "oracles", "suites", "report", "cli")

METHODS = {
    ("rings", "BiPoly"): ("__mul__",),
    ("rings", "XSeries"): ("__mul__",),
    ("rings", "QuadElem"): ("__mul__",),
    ("report", "IdentityReport"): ("to_dict",),
}

RESULT_BITS = {
    f"coefficients.{name}"
    for name in (
        "coeff_recurrence",
        "coeff_factorial",
        "coeff_product",
        "coeff_lambda_subset",
        "coeff_lambda_multiset",
        "coeff_partial_fractions",
        "coeff_symbolic",
        "multinomial",
    )
}

REPEATED = "coefficients.coeff_recurrence"


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    own = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0, start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        own.append(end - start - covered)
    return own


def _metric_name(function) -> str:
    layer = function.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{function.__qualname__.replace('__', '')}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def install(self, package) -> None:
        """Wrap every traced function of ``package`` at all its bindings."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = []
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for name, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_"):
                    targets.append(value)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"{package.__name__}.{layer}"), cls_name)
            targets.extend(vars(cls)[method] for method in methods)
        for function in targets:
            if id(function) not in self._wrappers:
                self._wrappers[id(function)] = self._wrap(function)
        prefix = package.__name__ + "."
        owners = [m for name, m in list(sys.modules.items()) if name == package.__name__ or name.startswith(prefix)]
        owners += [value for m in owners for value in vars(m).values() if inspect.isclass(value) and value.__module__.startswith(prefix)]
        for owner in {id(owner): owner for owner in owners}.values():
            for attr, value in list(vars(owner).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_request(self, request: int) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self._seen.clear()
        self.request = request

    def _wrap(self, function):
        name = _metric_name(function)
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        post = self._post_hook(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(name_index)
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent, self.request)
            if post is not None:
                result = post(args, kwargs, result)
            if inspect.isgenerator(result):
                result = self._count_items(name, result)
            return result

        return wrapper

    def _post_hook(self, name: str):
        counters = self.counters
        if name == REPEATED:
            seen = self._seen

            def post(args, kwargs, result):
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    counters[f"{name}.repeats"] += 1
                else:
                    seen.add(key)
                counters[f"{name}.result_bits"] += bits(result)
                return result

            return post
        if name in RESULT_BITS:

            def post(args, kwargs, result):
                counters[f"{name}.result_bits"] += bits(result)
                return result

            return post
        if name.startswith("suites."):

            def post(args, kwargs, result):
                if not any(isinstance(self.spans[i], int) and self.names[self.spans[i]].startswith("suites.") for i in self._stack):
                    reports = result if isinstance(result, list) else [result]
                    for report in reports:
                        holds = getattr(report, "holds", None)
                        if holds is not None:
                            counters["suites.reports"] += 1
                            counters["suites.reports_failed"] += not holds
                return result

            return post
        return None

    def _count_items(self, name: str, generator):
        key = f"{name}.items"
        for item in generator:
            self.counters[key] += 1
            yield item

    def totals(self) -> dict[str, float]:
        """Additive per-request figures: calls, self_s and the counters."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            name = self.names[span[0]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own / 1e9
        for key, value in self.counters.items():
            out[key] += value
        return dict(out)

    def write_spans(self, path: str) -> None:
        """Append this request's spans to ``path`` as one gzipped JSON line."""
        record = {"request": self.request, "names": self.names, "spans": self.spans}
        with gzip.open(path, "at", compresslevel=1, encoding="utf-8") as handle:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def finish(totals: dict[str, float]) -> dict[str, float]:
    """Derive the ratios from summed totals."""
    out = dict(totals)
    calls = totals.get(f"{REPEATED}.calls", 0)
    out[f"{REPEATED}.repeat_ratio"] = totals.get(f"{REPEATED}.repeats", 0) / calls if calls else 0.0
    return out
