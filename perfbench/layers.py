"""Which library functions the traced run wraps, and the per-layer
metrics computed from the spans and counts it records.

Times are per unit of the workload's work: per optimiser step on
``train``, per request on ``classify-*``, per report on ``eval``. Set-up
functions (``dataset.*``, ``build_vocab``) are given per call. A metric
whose layer does no work on a workload reads 0 there.
"""

from __future__ import annotations

from tsrmcl import boxes, cache, cli, contrastive, dataset, encoders, metrics, tensor, tokenizer

import tracer as tr

# (owner, attribute, span name); a class owner patches a method
TIMED = [
    (encoders, "encode_images", "encoders.encode_images"),
    (encoders, "encode_texts", "encoders.encode_texts"),
    (encoders, "project_to_shared", "encoders.project_to_shared"),
    (contrastive, "train", "contrastive.train"),
    (contrastive, "similarity", "contrastive.similarity"),
    (contrastive, "contrastive_loss", "contrastive.contrastive_loss"),
    (contrastive, "classify", "contrastive.classify"),
    (contrastive.DualEncoderModel, "with_params", "contrastive.with_params"),
    (contrastive.DualEncoderModel, "text_fingerprint", "contrastive.text_fingerprint"),
    (tensor.Tensor, "backward", "tensor.backward"),
    (tensor, "adam_step", "tensor.adam_step"),
    (tokenizer, "build_vocab", "tokenizer.build_vocab"),
    (tokenizer, "tokenize", "tokenizer.tokenize"),
    (cache, "get_or_encode", "cache.get_or_encode"),
    (metrics, "load_predictions_jsonl", "metrics.load_predictions_jsonl"),
    (metrics, "load_tt100k_ground_truth", "metrics.load_tt100k_ground_truth"),
    (metrics, "map_suite", "metrics.map_suite"),
    (metrics, "ap_at", "metrics.ap_at"),
    (metrics, "match_detections", "metrics.match_detections"),
    (dataset, "synth_dataset", "dataset.synth_dataset"),
    (dataset, "crop_signs", "dataset.crop_signs"),
    (dataset, "stratified_split", "dataset.stratified_split"),
    (cli, "run", "cli.run"),
]

# counted, never timed: they are too small for a span to be meaningful
COUNTED = [
    (boxes, "iou", "boxes.iou"),
    (tensor.Tensor, "__init__", "tensor.nodes"),
    (tensor.Tensor, "_from_op", "tensor.nodes"),
]

# per-layer metric -> (unit, better); the order is the report order
PER_LAYER = {
    "contrastive.step_ms_p50": ("ms", "lower"),
    "contrastive.step_ms_p90": ("ms", "lower"),
    "encoders.image_forward_ms": ("ms", "lower"),
    "encoders.text_forward_ms": ("ms", "lower"),
    "encoders.project_ms": ("ms", "lower"),
    "encoders.text_rows": ("count", "lower"),
    "encoders.text_distinct_share": ("ratio", "higher"),
    "contrastive.loss_ms": ("ms", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.adam_ms": ("ms", "lower"),
    "contrastive.rebuild_ms": ("ms", "lower"),
    "tensor.nodes_per_step": ("count", "lower"),
    "tensor.nodes_per_request": ("count", "lower"),
    "tokenizer.build_vocab_ms": ("ms", "lower"),
    "tokenizer.tokenize_ms": ("ms", "lower"),
    "tokenizer.tokenize_calls": ("count", "lower"),
    "contrastive.fingerprint_ms": ("ms", "lower"),
    "contrastive.fingerprint_calls": ("count", "lower"),
    "cache.get_or_encode_self_ms": ("ms", "lower"),
    "cache.lookups": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.bytes_resident": ("bytes", "lower"),
    "contrastive.classify_ms": ("ms", "lower"),
    "metrics.load_ms": ("ms", "lower"),
    "metrics.map_suite_ms": ("ms", "lower"),
    "metrics.ap_at_ms": ("ms", "lower"),
    "metrics.ap_at_calls": ("count", "lower"),
    "metrics.match_ms": ("ms", "lower"),
    "boxes.iou_calls": ("count", "lower"),
    "boxes.iou_calls_per_detection": ("count", "lower"),
    "cli.run_self_ms": ("ms", "lower"),
    "dataset.synth_ms": ("ms", "lower"),
    "dataset.crop_ms": ("ms", "lower"),
    "dataset.split_ms": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def install(t: tr.Tracer) -> None:
    """Wrap every TIMED and COUNTED target; ``t.restore()`` undoes it."""

    def text_rows(args, kwargs):
        seqs = list(args[0] if args else kwargs["sequences"])
        t.count("encoders.text_rows", len(seqs))
        t.count("encoders.text_distinct", len({tuple(getattr(s, "ids", s)) for s in seqs}))

    for owner, attr, name in TIMED:
        hook = text_rows if name == "encoders.encode_texts" else None
        t.patch(owner, attr, lambda fn, name=name, hook=hook: t.timed(name, fn, hook))
    for owner, attr, name in COUNTED:
        t.patch(owner, attr, lambda fn, name=name: t.counted(name, fn))


def train_steps(spans) -> list[float]:
    """Optimiser-step durations inside each ``contrastive.train`` span: a
    step runs from its ``encode_images`` call to the end of the
    ``with_params`` rebuild that follows its ``adam_step``."""
    kids = tr.children_of(spans)
    steps = []
    for i, span in enumerate(spans):
        if span[0] != "contrastive.train":
            continue
        start, stepped = None, False
        for c in kids.get(i, ()):
            name = spans[c][0]
            if name == "encoders.encode_images":
                start, stepped = spans[c][1], False
            elif name == "tensor.adam_step":
                stepped = True
            elif name == "contrastive.with_params" and stepped and start is not None:
                steps.append(spans[c][2] - start)
                start, stepped = None, False
    return steps


def per_layer(t: tr.Tracer, unit: str, cache_delta: dict | None, detections: int,
              overhead: float) -> dict:
    """Every PER_LAYER metric from one traced run.

    ``cache_delta`` holds the workload cache's hits, misses and evictions
    during the traced ops plus its final resident bytes (None without a
    cache); ``detections`` is the number of detections one report scores;
    ``overhead`` is the measured tracing overhead share.
    """
    spans = t.spans
    roots = tr.roots_of(spans)
    selfs = tr.self_times(spans)
    n_ops = sum(1 for s in spans if s[3] < 0 and s[0] == "op")
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    all_total: dict[str, float] = {}
    all_calls: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        all_total[name] = all_total.get(name, 0.0) + (end - start)
        all_calls[name] = all_calls.get(name, 0) + 1
        if spans[roots[i]][0] != "op":
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + selfs[i]

    units = calls.get("tensor.adam_step", 0) if unit == "step" else n_ops

    def per_unit(value: float) -> float:
        return value / units if units else 0.0

    def ms(*names: str) -> float:
        return per_unit(1000.0 * sum(total.get(n, 0.0) for n in names))

    def per_call_ms(name: str) -> float:
        n = all_calls.get(name, 0)
        return 1000.0 * all_total[name] / n if n else 0.0

    def counted(name: str) -> int:
        return t.counts.get(("op", name), 0)

    steps = train_steps(spans)
    rows = counted("encoders.text_rows")
    c = cache_delta or {}
    lookups = c.get("hits", 0) + c.get("misses", 0)
    out = {
        "contrastive.step_ms_p50": 1000.0 * tr.percentile(steps, 50) if steps else 0.0,
        "contrastive.step_ms_p90": 1000.0 * tr.percentile(steps, 90) if steps else 0.0,
        "encoders.image_forward_ms": ms("encoders.encode_images"),
        "encoders.text_forward_ms": ms("encoders.encode_texts"),
        "encoders.project_ms": ms("encoders.project_to_shared"),
        "encoders.text_rows": per_unit(rows),
        "encoders.text_distinct_share": counted("encoders.text_distinct") / rows if rows else 0.0,
        "contrastive.loss_ms": ms("contrastive.similarity", "contrastive.contrastive_loss"),
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.adam_ms": ms("tensor.adam_step"),
        "contrastive.rebuild_ms": ms("contrastive.with_params"),
        "tensor.nodes_per_step": per_unit(counted("tensor.nodes")) if unit == "step" else 0.0,
        "tensor.nodes_per_request": per_unit(counted("tensor.nodes")) if unit == "request" else 0.0,
        "tokenizer.build_vocab_ms": per_call_ms("tokenizer.build_vocab"),
        "tokenizer.tokenize_ms": ms("tokenizer.tokenize"),
        "tokenizer.tokenize_calls": per_unit(calls.get("tokenizer.tokenize", 0)),
        "contrastive.fingerprint_ms": ms("contrastive.text_fingerprint"),
        "contrastive.fingerprint_calls": per_unit(calls.get("contrastive.text_fingerprint", 0)),
        "cache.get_or_encode_self_ms": per_unit(1000.0 * self_ms.get("cache.get_or_encode", 0.0)),
        "cache.lookups": per_unit(lookups),
        "cache.hit_ratio": c.get("hits", 0) / lookups if lookups else 0.0,
        "cache.misses": per_unit(c.get("misses", 0)),
        "cache.evictions": per_unit(c.get("evictions", 0)),
        "cache.bytes_resident": float(c.get("bytes_resident", 0)),
        "contrastive.classify_ms": ms("contrastive.classify"),
        "metrics.load_ms": ms("metrics.load_predictions_jsonl", "metrics.load_tt100k_ground_truth"),
        "metrics.map_suite_ms": ms("metrics.map_suite"),
        "metrics.ap_at_ms": ms("metrics.ap_at"),
        "metrics.ap_at_calls": per_unit(calls.get("metrics.ap_at", 0)),
        "metrics.match_ms": ms("metrics.match_detections"),
        "boxes.iou_calls": per_unit(counted("boxes.iou")),
        "boxes.iou_calls_per_detection": per_unit(counted("boxes.iou")) / detections
        if detections else 0.0,
        "cli.run_self_ms": per_unit(1000.0 * self_ms.get("cli.run", 0.0)),
        "dataset.synth_ms": per_call_ms("dataset.synth_dataset"),
        "dataset.crop_ms": per_call_ms("dataset.crop_signs"),
        "dataset.split_ms": per_call_ms("dataset.stratified_split"),
        "trace.overhead_share": overhead,
    }
    return out
