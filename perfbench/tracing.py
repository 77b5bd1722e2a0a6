"""Span tracing for the benchmark's traced run, applied from outside the
package.

`Tracer.patched()` replaces each wrapped function of the hydroformer modules
under every name a caller looks it up by (for example both
`hydroformer.attention.matmul` and `hydroformer.model.matmul`), and class
attributes for methods, then restores every one of them on exit. A span
records its name, start, end, parent span, run id and the number of tape ops
recorded while it was open. Spans stay in memory until `dump` writes them.
"""

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from hydroformer import (attention, data, explain, kernels, metrics, model, tensor,
                         training)

TAPE_OPS = ("matmul", "transpose", "add", "sub", "mul", "scale", "add_bias",
            "concat_cols", "activation", "masked_softmax", "layer_norm", "mse",
            "tensor_sum")

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.ops = array("q")       # tape ops recorded while the span was open
        self.run_id = 0             # set by the caller: 0 = set-up, i + 1 = unit i
        self.n_ops = 0
        self.out_bytes = 0
        self.topk_rows = 0
        self.decoder_rows = 0
        self._stack = []
        self._patches = []          # (owner, attribute, original), in patch order

    # -- spans ---------------------------------------------------------------

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name):
        idx = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.ops.append(self.n_ops)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx):
        self.end[idx] = _clock()
        self._stack.pop()
        self.ops[idx] = self.n_ops - self.ops[idx]

    def _parent_name(self):
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def span(self, fn, name, after=None):
        """Wrap fn in a span; `name` is a string or a callable of the call's
        arguments; `after(args, result)` runs once the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name if isinstance(name, str) else name(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch_function(self, original, wrapper):
        for mod in [m for k, m in sys.modules.items()
                    if k == "hydroformer" or k.startswith("hydroformer.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.span(original, name, after))

    @contextmanager
    def patched(self):
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self):
        fn = self._patch_function

        def count_op(args, out):
            self.n_ops += 1
            self.out_bytes += out.data.nbytes

        for op in TAPE_OPS:
            original = getattr(tensor, op)
            fn(original, self.span(original, "tensor." + op, count_op))
        fn(tensor.backward, self.span(tensor.backward, "tensor.backward"))

        def count_rows(args, out):
            self.topk_rows += args[0].shape[0]

        fn(kernels.topk_keep, self.span(kernels.topk_keep, "kernels.topk_keep", count_rows))
        for k in ("masked_softmax_forward", "masked_softmax_backward"):
            original = getattr(kernels, k)
            fn(original, self.span(original, "kernels." + k))

        for a in ("attention_scores", "topk_mask", "causal_mask"):
            original = getattr(attention, a)
            fn(original, self.span(original, "attention." + a))

        def head_kind(args):
            if self._parent_name() == "model.encoder_forward":
                return "attention.multi_head.enc"
            return "attention.multi_head.dec_self" if args[0] is args[1] \
                else "attention.multi_head.dec_cross"

        fn(attention.multi_head, self.span(attention.multi_head, head_kind))

        def count_decoder_rows(args, out):
            self.decoder_rows += args[1].data.shape[0]

        cls = model.TransformerModel
        self._patch_method(cls, "__init__", "model.build")
        for m in ("embed_encoder", "embed_decoder", "encoder_forward", "output_head",
                  "forward", "predict"):
            self._patch_method(cls, m, "model." + m)
        self._patch_method(cls, "decoder_forward", "model.decoder_forward",
                           count_decoder_rows)
        for f in ("save_checkpoint", "load_checkpoint"):
            original = getattr(model, f)
            fn(original, self.span(original, "model." + f))

        fn(training.fit, self.span(training.fit, "training.fit"))
        fn(training._split_loss, self.span(training._split_loss, "training.val_pass"))
        fn(training.evaluate_split, self.span(training.evaluate_split,
                                              "training.evaluate_split"))
        self._patch_method(training.Adam, "step", "training.adam_step")

        def wrap_value_function(args, vf):
            vf.predict = self.span(vf.predict, "explain.value_function")

        fn(explain.sampled_shapley, self.span(explain.sampled_shapley,
                                              "explain.sampled_shapley"))
        fn(explain.model_value_function, self.span(explain.model_value_function,
                                                   "explain.model_value_function",
                                                   wrap_value_function))
        fn(explain._masked_value, self.span(explain._masked_value, "explain.coalition"))

        for d in ("synth_generate", "write_table", "load_table", "fill_missing",
                  "make_windows"):
            original = getattr(data, d)
            fn(original, self.span(original, "data." + d))

        self._patch_method(metrics.MetricReport, "add", "metrics.report")

    # -- results -------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, with each span's self time: its duration
        minus the time its child spans cover (children never overlap)."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {"name": np.frombuffer(self.name, dtype=np.int32), "parent": parent,
                "run": np.frombuffer(self.run, dtype=np.int32),
                "ops": np.frombuffer(self.ops, dtype=np.int64),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "dur": dur, "self": dur - covered}

    def aggregate(self):
        """name -> {calls, total_s, self_s, ops} over every span."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=a["dur"], minlength=n)
        own = np.bincount(a["name"], weights=a["self"], minlength=n)
        ops = np.bincount(a["name"], weights=a["ops"], minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i]), "ops": int(ops[i])}
                for i, name in enumerate(self.names)}

    def dump(self, path):
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: a[k] for k in
                 ("name", "parent", "run", "ops", "start", "end", "self")})


def per_layer_metrics(agg, tracer, samples_trained, traced_s, untraced_s):
    """The benchmark's per-layer metrics from one traced run. Times are
    totals over the run in seconds; a span that never ran reads 0."""
    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    fwd_names = ["tensor." + op for op in TAPE_OPS]
    instances = get("explain.sampled_shapley", "calls")
    evals = get("explain.value_function", "calls")
    visited = get("explain.coalition", "calls")
    self_total = sum(v["self_s"] for v in agg.values())
    return {
        "tensor.ops_per_sample": ratio(get("training.fit", "ops")
                                       - get("training.val_pass", "ops"), samples_trained),
        "tensor.ops_per_predict": ratio(get("model.predict", "ops"),
                                        get("model.predict", "calls")),
        "tensor.op_s": sum(get(n, "self_s") for n in fwd_names),
        "tensor.backward_s": get("tensor.backward", "total_s"),
        "tensor.backward_calls": get("tensor.backward", "calls"),
        "tensor.out_bytes": tracer.out_bytes,
        "kernels.topk_keep_s": get("kernels.topk_keep", "total_s"),
        "kernels.topk_keep_calls": get("kernels.topk_keep", "calls"),
        "kernels.topk_keep_rows": tracer.topk_rows,
        "kernels.masked_softmax_forward_s": get("kernels.masked_softmax_forward", "total_s"),
        "kernels.masked_softmax_backward_s": get("kernels.masked_softmax_backward",
                                                 "total_s"),
        "attention.multi_head_s.enc": get("attention.multi_head.enc", "total_s"),
        "attention.multi_head_s.dec_self": get("attention.multi_head.dec_self", "total_s"),
        "attention.multi_head_s.dec_cross": get("attention.multi_head.dec_cross", "total_s"),
        "model.encoder_forward_s": get("model.encoder_forward", "total_s"),
        "model.decoder_forward_s": get("model.decoder_forward", "total_s"),
        "model.output_head_s": get("model.output_head", "total_s"),
        "model.decoder_rows_per_window": ratio(tracer.decoder_rows,
                                               get("model.encoder_forward", "calls")),
        "model.save_checkpoint_s": get("model.save_checkpoint", "total_s"),
        "model.load_checkpoint_s": get("model.load_checkpoint", "total_s"),
        "training.adam_step_s": get("training.adam_step", "total_s"),
        "training.val_pass_s": get("training.val_pass", "total_s"),
        "training.evaluate_split_s": get("training.evaluate_split", "total_s"),
        "explain.model_evals_per_instance": ratio(evals, instances),
        "explain.coalitions_visited_per_instance": ratio(visited, instances),
        "explain.eval_ratio": ratio(evals, visited),
        "explain.bookkeeping_s": get("explain.sampled_shapley", "self_s")
                                 + get("explain.coalition", "self_s"),
        "data.synth_generate_s": get("data.synth_generate", "total_s"),
        "data.write_table_s": get("data.write_table", "total_s"),
        "data.load_table_s": get("data.load_table", "total_s"),
        "data.fill_missing_s": get("data.fill_missing", "total_s"),
        "data.make_windows_s": get("data.make_windows", "total_s"),
        "metrics.report_s": get("metrics.report", "total_s"),
        "trace.overhead": ratio(traced_s, untraced_s),
        "trace.unattributed_s": traced_s - self_total,
    }
