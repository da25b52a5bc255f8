"""Per-layer tracing of mtlmolnet, installed from outside the package.

The tracer replaces public functions and methods with timing wrappers at
the module attribute each caller looks up: a function is patched in its
own module and in every mtlmolnet module that imported it by name. Spans
nest on one stack. A span's self time is its duration minus the time of
the spans it encloses, so the self times of all spans add up to the wall
time they cover.

Three kinds of hook:

* ``fn``: a public function or method. Its span is ``<module>.<name>`` and
  it becomes the layer of the autodiff ops it creates.
* ``op``: an autodiff op. Its forward span is ``<layer>.<op>.fwd`` and the
  backward closure it records is wrapped as ``<layer>.<op>.bwd``, where
  ``<layer>`` is the module of the innermost enclosing ``fn`` span.
* a counter attached to either kind adds derived counts (atoms, rows,
  bytes, flops).

A hook whose target does not exist is recorded in ``absent`` and skipped.
Aggregates are kept in memory; no span is written out one by one.
"""

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

_perf = time.perf_counter
PACKAGE = "mtlmolnet"


def _shape(x):
    return getattr(x, "data", x).shape


def _count_encode_batch(tracer, args, kwargs):
    graphs = args[0] if args else kwargs["graphs"]
    tracer.counts["encoder.atoms"] += sum(g.n_atoms for g in graphs)
    tracer.counts["encoder.edges"] += sum(2 * g.n_bonds for g in graphs)


def _count_scatter_rows(tracer, args, kwargs):
    # read each source row and index, read-modify-write its destination row
    src, index = args[0], args[1]
    rows, width = src.shape[0], src.shape[1] if src.ndim == 2 else 1
    tracer.counts["kernels.scatter_add_rows.rows"] += rows
    tracer.counts["kernels.scatter_add_rows.bytes"] += (
        src.nbytes + index.nbytes + 2 * rows * width * 8)


def _count_adam(tracer, args, kwargs):
    # read param, grad, m, v and write param, m, v: 7 float64 streams
    optimizer = args[0]
    n = sum(p.data.size for p in optimizer.params)
    tracer.counts["autodiff.Adam.step.bytes"] += 7 * 8 * n


def _count_checkpoint(tracer, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tracer.counts["checkpoint.load_checkpoint.bytes"] += os.path.getsize(path)


# (module, attribute path, kind, counter); a function without a hook of
# its own counts towards the self time of the hooked function that called it
HOOKS = (
    ("smiles", "parse_smiles", "fn", None),
    ("smiles", "featurize", "fn", None),
    ("features", "builtin_phys_block", "fn", None),
    ("features", "load_qc_descriptors", "fn", None),
    ("features", "fit_stats", "fn", None),
    ("features", "standardize", "fn", None),
    ("features", "feature_matrix", "fn", None),
    ("data", "load_dataset", "fn", None),
    ("data", "prepare_table", "fn", None),
    ("data", "select_split", "fn", None),
    ("data", "make_batches", "fn", None),
    ("encoder", "encode_batch", "fn", _count_encode_batch),
    ("model", "train", "fn", None),
    ("model", "init_model", "fn", None),
    ("model", "batch_loss", "fn", None),
    ("model", "forward", "fn", None),
    ("model", "masked_bce", "fn", None),
    ("model", "WeightingState.weights", "fn", None),
    ("model", "predict_blocks", "fn", None),
    ("model", "evaluate_split", "fn", None),
    ("metrics", "auroc", "fn", None),
    ("checkpoint", "load_checkpoint", "fn", _count_checkpoint),
    ("cli", "main", "fn", None),
    ("autodiff", "Tensor.backward", "fn", None),
    ("autodiff", "Adam.step", "fn", _count_adam),
    ("autodiff", "adam_step", "fn", None),
    ("_kernels", "scatter_add_rows", "fn", _count_scatter_rows),
) + tuple(
    ("autodiff", op, "op", None)
    for op in ("add", "sub", "mul", "matmul", "tensor_sum", "concat",
               "index_select", "scatter_add", "relu", "sigmoid", "softplus",
               "pow_elem", "clamp")
)


class Tracer:
    """Span stack plus aggregated self times, call counts and counters."""

    ROOT = "bench"

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []  # [name, start, time of enclosed spans]
        self._layers = []
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------
    def enter(self, name):
        self._stack.append([name, _perf(), 0.0])

    def exit(self):
        end = _perf()
        name, start, enclosed = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - enclosed
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    # -- installation --------------------------------------------------
    def install(self, hooks=HOOKS):
        # import every module before patching any, so that no module binds
        # a wrapper by `from ... import` while it is being imported
        modules = {}
        for module_name in {h[0] for h in hooks}:
            try:
                modules[module_name] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                pass
        for module_name, path, kind, counter in hooks:
            layer = module_name.lstrip("_")
            span = f"{layer}.{path}"
            try:
                module = modules[module_name]
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (KeyError, AttributeError):
                self.absent.append(f"*.{path}" if kind == "op" else span)
                continue
            if kind == "op":
                wrapper = self._wrap_op(original, path)
            else:
                wrapper = self._wrap_fn(original, span, layer, counter)
            self._patch(owner, attr, original, wrapper)
            if owner is module:
                # callers that did `from module import name` look it up at home
                for other in list(sys.modules.values()):
                    other_name = getattr(other, "__name__", "")
                    if (other is not module and other_name.startswith(PACKAGE)
                            and getattr(other, attr, None) is original):
                        self._patch(other, attr, original, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_fn(self, fn, span, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._layers.append(layer)
            tracer.enter(span)
            try:
                if counter is not None:
                    counter(tracer, args, kwargs)
                return fn(*args, **kwargs)
            except Exception:
                tracer.counts[span + ".errors"] += 1
                raise
            finally:
                tracer.exit()
                tracer._layers.pop()

        return wrapper

    def _wrap_op(self, fn, op):
        tracer = self
        names = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = tracer._layers[-1] if tracer._layers else tracer.ROOT
            if layer not in names:
                names[layer] = (f"{layer}.{op}.fwd", f"{layer}.{op}.bwd",
                                f"{layer}.{op}.flops")
            fwd, bwd, flops_key = names[layer]
            tracer.enter(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            flops = 0
            if op == "matmul":
                m, k = _shape(args[0])
                flops = 2 * m * k * _shape(args[1])[1]
                tracer.counts[flops_key] += flops
            inner = out._backward_fn
            if inner is not None:
                def timed_backward(g):
                    tracer.enter(bwd)
                    try:
                        grads = inner(g)
                    finally:
                        tracer.exit()
                    if flops:
                        tracer.counts[flops_key] += flops * sum(x is not None for x in grads)
                    return grads

                out._backward_fn = timed_backward
            return out

        return wrapper

    # -- results -------------------------------------------------------
    def value(self, metric):
        """Per-layer value by metric name.

        ``X.self_s``, ``X.fwd_s`` and ``X.bwd_s`` are self times of spans
        ``X``, ``X.fwd`` and ``X.bwd``; ``X.calls`` counts calls of ``X``
        (of ``X.fwd`` for ops); any other name is a counter.
        """
        base, _, field = metric.rpartition(".")
        if field == "self_s":
            return self.self_s.get(base, 0.0)
        if field in ("fwd_s", "bwd_s"):
            return self.self_s.get(f"{base}.{field[:3]}", 0.0)
        if field == "calls":
            return self.calls.get(f"{base}.fwd", self.calls.get(base, 0))
        return self.counts.get(metric, 0)

    def is_absent(self, metric):
        """True when the hook a per-layer metric reads from is not installed."""
        base = metric.rpartition(".")[0]
        return base in self.absent or "*." + base.partition(".")[2] in self.absent

    def layer_self_sum(self):
        """Total self time of every span except the benchmark's root span."""
        return sum(v for k, v in self.self_s.items() if k != self.ROOT)
