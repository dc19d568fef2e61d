"""Span tracing of verifake from the outside, and the per-layer metrics.

`Tracer.install` replaces functions with timing wrappers at the name each
caller looks them up by. A function imported into several modules is wrapped
in each of them (`metrics.roc_curve` is called both as
`verifake.metrics.roc_curve` by `auc`/`eer` and as
`verifake.pipeline.roc_curve` by the ROC artifact writer), so every call
passes through exactly one wrapper. Spans stay in memory as
`[name, start, end, parent index, attrs]` until the worker writes them out.

Nothing under `src/` knows about this module. A target that a later version
of the program no longer has is skipped and listed in `Tracer.missing`, so a
refactor shows up as zero counts instead of a crash.
"""

import functools
import math
import os
import pathlib
import time
from collections import defaultdict

MARGIN_LOSSES = ("arcface", "cosface", "sphereface", "combined")
LOSSES = ("softmax",) + MARGIN_LOSSES + ("triplet",)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _train_attrs(args, kwargs, result):
    dataset, loss, cfg = (_arg(args, kwargs, i, k) for i, k in enumerate(("dataset", "loss_name", "cfg")))
    n = len(dataset.features)
    return {"loss": loss, "iterations": cfg.epochs * math.ceil(n / cfg.batch_size)}


def _rows_attrs(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "features"))}


def _tsne_attrs(args, kwargs, result):
    return {"n": len(_arg(args, kwargs, 0, "X")), "iterations": _arg(args, kwargs, 1, "cfg").iterations}


def _bytes_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _probe_attrs(args, kwargs, result):
    return {"probes": len(_arg(args, kwargs, 1, "probes"))}


def _report_attrs(args, kwargs, result):
    return {"methods": len(result.rows)}


# (module, attribute at the lookup site, span name, attrs hook)
TARGETS = [
    ("verifake.cli", "main", "cli.main", None),
    ("verifake.cli", "load_config", "config.load_config", None),
    ("verifake.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("verifake.cli", "evaluate_dataset", "pipeline.evaluate_dataset", None),
    ("verifake.cli", "synth_embedding_dataset", "pipeline.synth_embedding_dataset", None),
    ("verifake.cli", "tsne_stage", "pipeline.tsne_stage", None),
    ("verifake.cli", "read_dataset", "dataset_io.read_dataset", None),
    ("verifake.cli", "write_dataset", "dataset_io.write_dataset", None),
    ("verifake.cli", "build_report", "metrics.build_report", _report_attrs),
    ("verifake.cli", "scores_to_csv", "protocol.scores_to_csv", None),
    ("verifake.cli", "scores_from_csv", "protocol.scores_from_csv", None),
    ("verifake.cli", "layout_to_csv", "tsne.layout_to_csv", None),
    ("verifake.cli", "kl_trace_to_csv", "tsne.kl_trace_to_csv", None),
    # cmd_train imports these from verifake.pipeline when it runs
    ("verifake.pipeline", "synth_stage", "pipeline.synth_stage", None),
    ("verifake.pipeline", "train_stage", "pipeline.train_stage", None),
    ("verifake.pipeline", "embed_stage", "pipeline.embed_stage", None),
    ("verifake.pipeline", "protocol_stage", "pipeline.protocol_stage", None),
    ("verifake.pipeline", "report_stage", "pipeline.report_stage", None),
    ("verifake.pipeline", "tsne_stage", "pipeline.tsne_stage", None),
    ("verifake.pipeline", "simulate_fakes", "pipeline.simulate_fakes", None),
    ("verifake.pipeline", "curve_to_csv", "pipeline.curve_to_csv", None),
    ("verifake.pipeline", "write_manifest", "pipeline.write_manifest", None),
    ("verifake.pipeline", "_write_text", "pipeline.write_text", None),
    ("verifake.pipeline", "_roc_csv_from_scores", "pipeline.roc_csv", None),
    ("verifake.pipeline", "write_dataset", "dataset_io.write_dataset", None),
    ("verifake.pipeline", "generate_identities", "synthetic.generate_identities", None),
    ("verifake.pipeline", "simulate_identity_swap", "synthetic.simulate_identity_swap", None),
    ("verifake.pipeline", "simulate_expression_swap", "synthetic.simulate_expression_swap", None),
    ("verifake.pipeline", "train_embedder", "trainer.train_embedder", _train_attrs),
    ("verifake.pipeline", "extract_embeddings", "trainer.extract_embeddings", _rows_attrs),
    ("verifake.pipeline", "build_gallery", "protocol.build_gallery", None),
    ("verifake.pipeline", "run_protocol", "protocol.run_protocol", _probe_attrs),
    ("verifake.pipeline", "scores_to_csv", "protocol.scores_to_csv", None),
    ("verifake.pipeline", "build_report", "metrics.build_report", _report_attrs),
    ("verifake.pipeline", "roc_curve", "metrics.roc_curve", None),
    ("verifake.pipeline", "roc_to_csv", "metrics.roc_to_csv", None),
    ("verifake.pipeline", "histograms_to_csv", "metrics.histograms_to_csv", None),
    ("verifake.pipeline", "run_tsne", "tsne.run_tsne", _tsne_attrs),
    ("verifake.pipeline", "layout_to_csv", "tsne.layout_to_csv", None),
    ("verifake.pipeline", "kl_trace_to_csv", "tsne.kl_trace_to_csv", None),
    ("verifake.trainer", "margin_loss_forward", "losses.margin_loss_forward", None),
    ("verifake.trainer", "margin_loss_backward", "losses.margin_loss_backward", None),
    ("verifake.trainer", "plain_softmax_loss", "losses.plain_softmax_loss", None),
    ("verifake.trainer", "triplet_loss", "losses.triplet_loss", None),
    ("verifake.losses", "_margin_pieces", "losses.margin_pieces", None),
    ("verifake.tsne", "joint_affinities", "tsne.joint_affinities", None),
    ("verifake.tsne", "calibrate_sigma", "tsne.calibrate_sigma", None),
    ("verifake.tsne", "row_affinities", "tsne.row_affinities", None),
    ("verifake.tsne", "kl_gradient", "tsne.kl_gradient", None),
    ("verifake.tsne", "kl_divergence", "tsne.kl_divergence", None),
    ("verifake.tsne", "_student_q", "tsne.student_q", None),
    ("verifake.dataset_io", "write_emb1", "dataset_io.write_emb1", _bytes_attrs),
    ("verifake.dataset_io", "read_emb1", "dataset_io.read_emb1", None),
    ("verifake.dataset_io", "write_csv", "dataset_io.write_csv", _bytes_attrs),
    ("verifake.dataset_io", "read_csv", "dataset_io.read_csv", None),
    ("verifake.metrics", "roc_curve", "metrics.roc_curve", None),
    ("verifake.metrics", "auc", "metrics.auc", None),
    ("verifake.metrics", "eer", "metrics.eer", None),
    # the CLI writes some artifacts with Path.write_text directly
    ("pathlib", "Path.write_text", "io.write_text", None),
    ("pathlib", "Path.read_text", "io.read_text", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.missing = []

    def open(self, name):
        """Start a span by hand; returns its index for `close`."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, modules):
        """Wrap every target; `modules` maps module names to imported modules."""
        modules = dict(modules, pathlib=pathlib)
        for module_name, attr, name, attrs in TARGETS:
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, attrs))

    def uninstall(self):
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()


class SpanIndex:
    """Durations, self times and counts of one traced rep."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s[3] >= 0:
                child[s[3]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)

    def total(self, name):
        return sum(self.dur[i] for i in self.by_name[name])

    def self_total(self, name):
        return sum(self.self_time[i] for i in self.by_name[name])

    def calls(self, name):
        return len(self.by_name[name])

    def attr_sum(self, name, key, where=lambda a: True):
        return sum(self.spans[i][4][key] for i in self.by_name[name] if where(self.spans[i][4]))

    def covered(self, names):
        """Time inside spans of `names`, counting each instant once."""
        names = set(names)
        total = 0.0
        for name in names:
            for i in self.by_name[name]:
                parent = self.spans[i][3]
                while parent >= 0 and self.spans[parent][0] not in names:
                    parent = self.spans[parent][3]
                if parent < 0:
                    total += self.dur[i]
        return total

    def per_call(self, name, value=None):
        """`value` (by default the number of `name` spans) divided by the
        number of CLI calls that ran `name`."""
        value = self.calls(name) if value is None else value
        calls = {self.nearest(i, "cli.main") for i in self.by_name[name]}
        return value / len(calls) if calls else 0

    def nearest(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0 and self.spans[parent][0] != name:
            parent = self.spans[parent][3]
        return parent


STAGES = {
    "synth_s": ("pipeline.synth_stage", "pipeline.synth_embedding_dataset"),
    "train_s": ("pipeline.train_stage",),
    "embed_s": ("pipeline.embed_stage",),
    "protocol_s": ("pipeline.protocol_stage", "protocol.build_gallery", "protocol.run_protocol"),
    "report_s": ("pipeline.report_stage", "metrics.build_report", "pipeline.roc_csv"),
    "tsne_s": ("pipeline.tsne_stage",),
    "io_s": (
        "dataset_io.read_dataset", "dataset_io.write_dataset", "pipeline.write_text",
        "pipeline.write_manifest", "io.write_text", "io.read_text",
        "protocol.scores_to_csv", "protocol.scores_from_csv", "tsne.layout_to_csv",
        "tsne.kl_trace_to_csv", "pipeline.curve_to_csv", "metrics.histograms_to_csv",
    ),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Every per-layer metric of one traced rep, 0 where a layer did not run.

    Times are totals over the rep. Counts are per CLI call that runs the
    layer (scale-eval runs synth and eval twice each), and ratios divide
    two counts of the same rep.
    """
    ix = SpanIndex(spans)
    m = {f"pipeline.{key}": ix.covered(names) for key, names in STAGES.items()}

    tsne_iters = ix.attr_sum("tsne.run_tsne", "iterations")
    kernel_builds = ix.calls("tsne.student_q")
    pair_ops = 0
    for i in ix.by_name["tsne.student_q"]:
        owner = ix.nearest(i, "tsne.run_tsne")
        if owner >= 0:
            pair_ops += spans[owner][4]["n"] ** 2
    m.update({
        "tsne.affinity_s": ix.total("tsne.joint_affinities"),
        "tsne.calibrate_s": ix.total("tsne.calibrate_sigma"),
        "tsne.calibrate_calls": ix.per_call("tsne.calibrate_sigma"),
        "tsne.gradient_s": ix.total("tsne.kl_gradient"),
        "tsne.gradient_calls": ix.per_call("tsne.kl_gradient"),
        "tsne.kl_s": ix.total("tsne.kl_divergence"),
        "tsne.kl_calls": ix.per_call("tsne.kl_divergence"),
        "tsne.loop_self_s": ix.self_total("tsne.run_tsne"),
        "tsne.kernel_builds_per_iter": _ratio(kernel_builds, tsne_iters),
        "tsne.pair_ops": ix.per_call("tsne.run_tsne", pair_ops),
    })

    m["trainer.train_s"] = ix.total("trainer.train_embedder")
    for loss in LOSSES:
        m[f"trainer.train_s.{loss}"] = sum(
            ix.dur[i] for i in ix.by_name["trainer.train_embedder"] if spans[i][4]["loss"] == loss
        )
    margin_batches = ix.attr_sum(
        "trainer.train_embedder", "iterations", lambda a: a["loss"] in MARGIN_LOSSES
    )
    m.update({
        "trainer.loop_self_s": ix.self_total("trainer.train_embedder"),
        "trainer.iterations": ix.per_call(
            "trainer.train_embedder", ix.attr_sum("trainer.train_embedder", "iterations")
        ),
        "trainer.embed_s": ix.total("trainer.extract_embeddings"),
        "trainer.embed_rows": ix.per_call(
            "trainer.extract_embeddings", ix.attr_sum("trainer.extract_embeddings", "rows")
        ),
        "losses.margin_forward_s": ix.total("losses.margin_loss_forward"),
        "losses.margin_backward_s": ix.total("losses.margin_loss_backward"),
        "losses.margin_passes_per_batch": _ratio(ix.calls("losses.margin_pieces"), margin_batches),
        "losses.triplet_s": ix.total("losses.triplet_loss"),
        "losses.triplet_calls": ix.per_call("losses.triplet_loss"),
        "losses.softmax_s": ix.total("losses.plain_softmax_loss"),
        "synthetic.generate_s": ix.total("synthetic.generate_identities"),
        "synthetic.swap_s": ix.total("synthetic.simulate_identity_swap")
        + ix.total("synthetic.simulate_expression_swap"),
        "synthetic.swap_calls": ix.per_call(
            "pipeline.simulate_fakes",
            ix.calls("synthetic.simulate_identity_swap") + ix.calls("synthetic.simulate_expression_swap"),
        ),
    })
    for fmt in ("emb1", "csv"):
        m[f"dataset_io.write_s.{fmt}"] = ix.total(f"dataset_io.write_{fmt}")
        m[f"dataset_io.read_s.{fmt}"] = ix.total(f"dataset_io.read_{fmt}")
        m[f"dataset_io.bytes.{fmt}"] = ix.per_call(
            f"dataset_io.write_{fmt}", ix.attr_sum(f"dataset_io.write_{fmt}", "bytes")
        )
    m.update({
        "protocol.gallery_s": ix.total("protocol.build_gallery"),
        "protocol.match_s": ix.total("protocol.run_protocol"),
        "protocol.probes": ix.per_call(
            "protocol.run_protocol", ix.attr_sum("protocol.run_protocol", "probes")
        ),
        "protocol.scores_csv_s": ix.total("protocol.scores_to_csv"),
        "metrics.report_s": ix.total("metrics.build_report"),
        "metrics.roc_builds_per_method": _ratio(
            ix.calls("metrics.roc_curve"), ix.attr_sum("metrics.build_report", "methods")
        ),
    })
    return m


def self_time_sum(spans, root: int) -> float:
    """Sum of the self times of `root` and every span below it."""
    ix = SpanIndex(spans)
    inside = [False] * len(spans)
    inside[root] = True
    for i in range(root + 1, len(spans)):
        parent = spans[i][3]
        inside[i] = parent >= 0 and inside[parent]
    return sum(t for t, keep in zip(ix.self_time, inside) if keep)
