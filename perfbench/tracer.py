"""Outside-in span tracer for the seqaug layers.

Each traced function is replaced, for the length of a ``with Tracer(...)``
block, by a wrapper installed where its caller looks the name up: a class
attribute for methods (``Conv2d.__call__``), the importing module's global
for functions imported by name (``pipeline.evaluate``), and the defining
module's global otherwise (``diffusion.reverse_step``, which ``sample``
looks up at call time). Nothing under ``src/`` changes.

A span records its name, its parent span, a start and an end. A layer's
self time is its span's duration minus the time its child spans cover.
Spans stay in memory; ``summary()`` folds them into per-layer totals.
"""

import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self, precision):
        from seqaug import augment, diffusion, pipeline, srs, sunet
        from seqaug import numerics as nd
        from seqaug.numerics import checkpoint, module

        self.precision = np.dtype(precision)
        self.spans = []            # (name, parent index or -1, start, end)
        self._stack = []
        self.counts = defaultdict(float)
        self._patched = []
        # (owner, attribute, span name, hook called with (args, kwargs, out))
        self._sites = [
            (module.Conv2d, "__call__", "numerics.conv2d", self._conv_bytes),
            (module.Linear, "__call__", "numerics.linear", self._count_dtype),
            (module.LayerNorm, "__call__", "numerics.layer_norm", self._count_dtype),
            (nd, "scaled_dot_attention", "numerics.attention", self._count_dtype),
            (nd, "embedding", "numerics.embedding", self._count_dtype),
            (nd, "backward", "numerics.backward", None),
            (nd.Adam, "step", "numerics.adam_step", None),
            (module, "save_checkpoint", "numerics.checkpoint.save", self._ckpt_bytes),
            (checkpoint, "load_checkpoint", "numerics.checkpoint.load", self._ckpt_bytes),
            (sunet.SUNet, "predict_noise", "sunet.predict_noise", self._rows),
            (diffusion, "training_loss", "diffusion.training_loss", None),
            (diffusion, "reverse_step", "diffusion.reverse_step", None),
            (diffusion, "round_to_items", "diffusion.round_to_items", self._zero_rows),
            (augment, "train_augmentor", "augment.train_augmentor", None),
            (augment, "augment_dataset", "augment.augment_dataset", None),
            (augment, "emit", "augment.emit", None),
            (augment, "save_sequences", "dataset.save_sequences", None),
            (srs.SrsModel, "encode", "srs.encode", self._pad_ratio),
            (srs.SrsModel, "score_sequences", "srs.score_sequences", None),
            (srs, "sample_negatives", "srs.sample_negatives", None),
            (srs, "train", "srs.train", None),
            (pipeline, "evaluate", "evaluation.evaluate", None),
            (pipeline, "load_sequences", "dataset.load_sequences", None),
            (pipeline, "run_train_diffusion", "pipeline.run_train_diffusion", None),
            (pipeline, "run_augment", "pipeline.run_augment", None),
            (pipeline, "run_train_srs", "pipeline.run_train_srs", None),
            (pipeline, "run_evaluate", "pipeline.run_evaluate", None),
        ]

    def __enter__(self):
        for owner, attr, name, hook in self._sites:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- hooks: counts recorded at the boundary where the work happens -------

    def _count_dtype(self, args, kwargs, out):
        if out.dtype != self.precision:
            self.counts["numerics.dtype_mismatch"] += 1

    def _conv_bytes(self, args, kwargs, out):
        self._count_dtype(args, kwargs, out)
        self.counts["numerics.conv2d.out_mb"] += out.data.nbytes / 1e6

    def _ckpt_bytes(self, args, kwargs, out):
        path = args[0] if args else kwargs["path"]
        self.counts["numerics.checkpoint.bytes"] += os.path.getsize(path)

    def _rows(self, args, kwargs, out):
        self.counts["sunet.predict_noise.rows"] += out.shape[0]

    def _zero_rows(self, args, kwargs, out):
        self.counts["diffusion.round_to_items.zero_rows"] += out[1]

    def _pad_ratio(self, args, kwargs, out):
        rows = kwargs.get("pad_rows")
        if rows is None:
            rows = kwargs.get("ids", args[1] if len(args) > 1 else None)
        rows = np.asarray(rows)
        self.counts["srs.encode.padded"] += int(np.count_nonzero(rows == 0))
        self.counts["srs.encode.positions"] += rows.size

    # -- folding spans into per-layer numbers ------------------------------

    def summary(self):
        """Per-layer totals: ``calls`` and ``self_s`` per span name, the
        hook counts, and the durations of every span (for percentiles)."""
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls, self_s, durations = defaultdict(int), defaultdict(float), defaultdict(list)
        for (name, parent, start, end), inner in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += (end - start) - inner
            durations[name].append(end - start)
        return calls, self_s, durations, dict(self.counts)
