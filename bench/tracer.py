"""Spans around calls into reviewpt, installed from outside the package.

A wrapper replaces a function at every module-level name that refers to it
(``training`` imports ``decode_span`` and ``cross_entropy`` by name), so no
caller bypasses it.
Each call records a span (name, start, end, parent) in memory; the
per-name totals give call counts, inclusive time and self time (the span's
duration minus the part its child spans cover).  Autograd ops also get a
span around their backward closure.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

from reviewpt import autograd as ag
from reviewpt import checkpoint, data, decoding, metrics, model, optim, tokenizer, training

# The autograd ops whose forward and backward time are reported.
OPS = (
    "matmul",
    "add",
    "mul",
    "softmax_rows",
    "layer_norm",
    "gelu",
    "dropout",
    "take_rows",
    "take",
    "reshape",
    "transpose",
    "cross_entropy",
)

# Model heads; their self time is model.heads_s.
HEADS = (
    "span_logits",
    "tag_logits",
    "class_logits",
    "span_probs_batch",
    "pair_probs_batch",
    "class_probs_batch",
    "tag_probs_batch",
    "mlm_probs_flat",
    "cls_hidden_batch",
)

# (module, function) pairs wrapped with a plain span named "<layer>.<function>".
# Only functions a per-layer metric or the call-count guard reads: a wrapped
# helper's time would drop out of its caller's self time.
FUNCTIONS = (
    (tokenizer, ("build_vocab", "encode")),
    (data, ("encode_bio", "encode_asc")),
    (model, HEADS),
    (optim, ("adam_step", "clip_grad_norm")),
    (training, ("posttrain_run", "posttrain_step", "evaluate_task")),
    (decoding, ("decode_span", "decode_bio", "predict_polarity")),
    (metrics, ("squad_eval", "ae_report", "asc_report")),
    (checkpoint, ("load_checkpoint",)),
)


def _namespaces():
    """Module dicts that may hold a reference to a reviewpt function."""
    for name, mod in list(sys.modules.items()):
        if name == "reviewpt" or name.startswith("reviewpt.") or name == "synthworld":
            yield vars(mod)


class Patcher:
    """Rebinds an object at every module-level name that refers to it."""

    def __init__(self):
        self._undo: list[tuple[dict, object, object]] = []

    def replace(self, old, new) -> None:
        bound = False
        for ns in _namespaces():
            for key, val in list(ns.items()):
                if val is old and not key.startswith("__"):
                    self._set(ns, key, new)
                    bound = True
        if not bound:
            raise RuntimeError(f"no module binds {old!r}; cannot wrap it")

    def replace_method(self, cls, name: str, new) -> None:
        self._set(vars(cls), name, new, owner=cls)

    def _set(self, ns, key, new, owner=None):
        old = ns[key]
        if owner is None:
            ns[key] = new
        else:
            setattr(owner, key, new)
        self._undo.append((owner if owner is not None else ns, key, old))

    def undo(self) -> None:
        while self._undo:
            target, key, old = self._undo.pop()
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)

    def unbound(self, originals) -> list[str]:
        """Names of module bindings that still refer to one of ``originals``."""
        ids = {id(o) for o in originals}
        left = []
        for ns in _namespaces():
            for key, val in ns.items():
                if not key.startswith("__") and id(val) in ids:
                    left.append(f"{ns.get('__name__')}.{key}")
        return left


class Tracer:
    """In-memory span recorder with per-scope totals and exact work counters."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent index)
        self.scope = "setup"
        self.phase = ""
        self.stats: dict[tuple[str, str], list] = {}  # (scope, name) -> [calls, total_s, self_s]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, name, start, child seconds]
        self.names: set[str] = set()  # every span name a wrapper can record
        self._patcher = Patcher()
        self._originals: list = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)

    def end(self) -> None:
        t1 = time.perf_counter()
        index, name, t0, child = self._stack.pop()
        dur = t1 - t0
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans[index] = (name, t0, t1, parent)
        st = self.stats.get((self.scope, name))
        if st is None:
            st = self.stats[(self.scope, name)] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.scope, key)] += value

    def calls(self, scope: str, name: str) -> int:
        return self.stats.get((scope, name), [0, 0.0, 0.0])[0]

    def total_s(self, scope: str, name: str) -> float:
        return self.stats.get((scope, name), [0, 0.0, 0.0])[1]

    def self_s(self, scope: str, name: str) -> float:
        return self.stats.get((scope, name), [0, 0.0, 0.0])[2]

    def table(self) -> dict:
        """Per-scope, per-name calls, inclusive and self seconds."""
        out: dict = {}
        for (scope, name), (n, total, own) in sorted(self.stats.items()):
            out.setdefault(scope, {})[name] = {"calls": n, "total_s": total, "self_s": own}
        return out

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        return traced

    def _op(self, op, fn):
        tracer = self
        fwd, bwd = f"autograd.{op}.fwd", f"autograd.{op}.bwd"
        self.names.update((fwd, bwd))

        def wrap_backward(closure):
            def traced_backward(g):
                tracer.begin(bwd)
                try:
                    closure(g)
                finally:
                    tracer.end()

            traced_backward.bench_traced = True
            return traced_backward

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            closure = out._backward_fn
            if closure is not None and not getattr(closure, "bench_traced", False):
                out._backward_fn = wrap_backward(closure)
                tracer.count(f"graph_nodes.{tracer.phase}")
            return out

        return traced

    def _encode_batch(self, fn):
        tracer = self
        self.names.update(("model.encode_batch", "model.encode_eval"))

        @functools.wraps(fn)
        def traced(params, config, ids, segments, pad_mask, *args, **kwargs):
            mask = pad_mask.reshape(len(pad_mask), -1)
            real = mask.sum(axis=1).astype(float)
            tracer.count("positions", mask.size)
            tracer.count("real_positions", float(real.sum()))
            tracer.count("attn_pairs", mask.size * mask.shape[1])
            tracer.count("real_attn_pairs", float((real * real).sum()))
            tracer.begin("model.encode_batch" if ag._GRAD_ENABLED else "model.encode_eval")
            try:
                return fn(params, config, ids, segments, pad_mask, *args, **kwargs)
            finally:
                tracer.end()

        return traced

    def _make_dk_examples(self, fn):
        tracer = self
        self.names.add("data.make_dk_examples")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a generator: produce every item inside the span
            tracer.begin("data.make_dk_examples")
            try:
                items = list(fn(*args, **kwargs))
            finally:
                tracer.end()
            return iter(items)

        return traced

    def _encode_mrc(self, fn):
        tracer = self
        inner = self._span("data.encode_mrc", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = inner(*args, **kwargs)
            if out is None:
                tracer.count("dropped")
            return out

        return traced

    def _save_checkpoint(self, fn):
        tracer = self
        inner = self._span("checkpoint.save_checkpoint", fn)

        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            inner(path, *args, **kwargs)
            tracer.count("checkpoint_bytes", os.path.getsize(path))

        return traced

    def install(self) -> None:
        """Wrap every traced function at each name that binds it."""
        special = {
            (model, "encode_batch"): self._encode_batch,
            (data, "make_dk_examples"): self._make_dk_examples,
            (data, "encode_mrc"): self._encode_mrc,
            (checkpoint, "save_checkpoint"): self._save_checkpoint,
        }
        for mod, names in FUNCTIONS:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name in names:
                self._wrap(mod, name, lambda fn, n=f"{layer}.{name}": self._span(n, fn))
        for (mod, name), factory in special.items():
            self._wrap(mod, name, factory)
        for op in OPS:
            self._wrap(ag, op, lambda fn, op=op: self._op(op, fn))
        self._patcher.replace_method(ag.Tensor, "backward", self._span("autograd.backward", ag.Tensor.backward))
        left = self._patcher.unbound(self._originals)
        if left:
            self.uninstall()
            raise RuntimeError(f"traced functions still bound unwrapped at: {', '.join(left)}")

    def _wrap(self, mod, name, factory) -> None:
        fn = getattr(mod, name)
        self._originals.append(fn)
        self._patcher.replace(fn, factory(fn))

    def uninstall(self) -> None:
        self._patcher.undo()
        self._originals.clear()
