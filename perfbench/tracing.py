"""In-memory span tracing of pndnet, applied from outside the package.

``traced()`` swaps every public function of every loaded ``pndnet`` module
(plus the few methods and private helpers listed in ``EXTRA``) for a wrapper
that records a span: name, start, end, parent, model stage and grad mode.
Each recorded tensor's ``_backward`` closure is wrapped the same way, so
backward time is attributed to the op that recorded it. On exit every
original is put back; no file under ``src/`` is touched.

A span's self time is its duration minus the time its children cover. The
package is single-threaded, so children nest inside their parent and that
coverage is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

# a span takes its stage from the nearest enclosing span of one of these modules
STAGE_MODULES = ("backbone", "regions", "graph", "head")

# traced in addition to the public module-level functions
EXTRA = (("tensor", "Tensor", "backward"),
         ("backbone", "Backbone", "forward"),
         ("model", "PNDNet", "forward"),
         ("model", "PNDNet", "predict_probabilities"),
         ("train", None, "_eval_accuracy"))

# context managers return before their body runs, so a span would mean nothing
SKIP = {("tensor", "no_grad")}

NAME, START, END, PARENT, STAGE, GRAD = range(6)


class Tracer:
    """Spans as lists [name, start, end, parent index, stage, grad enabled]."""

    def __init__(self, tensor_module):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self._tensor = tensor_module

    def open(self, name: str, stage: str | None) -> list:
        parent = self.stack[-1] if self.stack else -1
        if stage is None and parent >= 0:
            stage = self.spans[parent][STAGE]
        span = [name, 0.0, 0.0, parent, stage, self._tensor._GRAD_ENABLED]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list):
        span[END] = time.perf_counter()
        self.stack.pop()

    def call(self, fn, name: str, stage: str | None, args, kwargs):
        span = self.open(name, stage)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        self._after(name, span, args, kwargs, result)
        return result

    def _after(self, name: str, span: list, args, kwargs, result):
        t = self._tensor
        if name == "tensor.conv2d":
            kernel = args[1] if len(args) > 1 else kwargs["kernel"]
            kh, kw, cin, cout = kernel.data.shape
            ho, wo, _ = result.data.shape
            self.counts[("conv_macs", span[STAGE])] += ho * wo * kh * kw * cin * cout
        out = result if isinstance(result, t.Tensor) else getattr(result, "loss", None)
        if not isinstance(out, t.Tensor) or out._backward is None:
            return
        if getattr(out._backward, "_traced", False):
            return  # returned unchanged (eval dropout) or already seen from an inner op
        self.counts["graph_nodes"] += 1
        self.counts["op_output_bytes"] += out.data.nbytes
        out._backward = self._wrap_backward(out._backward, f"tensor.{out._op}.bwd", span[STAGE])

    def _wrap_backward(self, backward, name: str, stage: str | None):
        def traced_backward(g):
            span = self.open(name, stage)
            try:
                backward(g)
            finally:
                self.close(span)

        traced_backward._traced = True
        return traced_backward

    # -- aggregation -------------------------------------------------------
    def totals(self, predicate=lambda s: True) -> dict:
        """Per-name (calls, seconds) over the spans that satisfy ``predicate``."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            if predicate(s):
                entry = out[s[NAME]]
                entry[0] += 1
                entry[1] += s[END] - s[START]
        return out

    def self_seconds(self) -> dict:
        """Per-name self time: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s[NAME]] += s[END] - s[START] - c
        return out

    def root_seconds(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def under(self, ancestor: str) -> list[bool]:
        """For each span, whether some enclosing span is named ``ancestor``."""
        flags: list[bool] = []
        for s in self.spans:
            p = s[PARENT]
            flags.append(p >= 0 and (self.spans[p][NAME] == ancestor or flags[p]))
        return flags


def _pndnet_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "pndnet" or name.startswith("pndnet."))}


def _label(short: str, qualname: str):
    if (short, qualname) == ("data", "preprocess"):
        # split by mode: train (augmenting) and eval preprocessing differ in cost
        def label(args, kwargs):
            mode = args[1] if len(args) > 1 else kwargs.get("mode")
            return f"data.preprocess.{mode}"
        return label
    return None


def _make_wrapper(tracer: Tracer, fn, short: str, qualname: str):
    name = f"{short}.{qualname}"
    stage = short if short in STAGE_MODULES else None
    label = _label(short, qualname)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(fn, label(args, kwargs) if label else name, stage, args, kwargs)

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Trace every pndnet module for the duration of the block."""
    modules = _pndnet_modules()
    originals: dict[int, tuple] = {}
    for full, mod in modules.items():
        short = full.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == full and not attr.startswith("_")
                    and (short, attr) not in SKIP):
                originals[id(obj)] = (obj, _make_wrapper(tracer, obj, short, attr))
    patched: list[tuple] = []
    for short, cls_name, attr in EXTRA:
        mod = modules[f"pndnet.{short}"]
        if cls_name is None:
            fn = getattr(mod, attr)
            originals[id(fn)] = (fn, _make_wrapper(tracer, fn, short, attr))
        else:
            cls = getattr(mod, cls_name)
            fn = cls.__dict__[attr]
            setattr(cls, attr, _make_wrapper(tracer, fn, short, f"{cls_name}.{attr}"))
            patched.append((cls, attr, fn))
    # rebind every module-level reference, including names imported elsewhere
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if originals.get(id(obj), (None,))[0] is obj:
                setattr(mod, attr, originals[id(obj)][1])
                patched.append((mod, attr, obj))
    try:
        yield tracer
    finally:
        for owner, attr, obj in reversed(patched):
            setattr(owner, attr, obj)
