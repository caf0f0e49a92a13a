"""Command-line front end for the whole pipeline.

Subcommands: synth, build-dataset, build-vocab, tokenize, train,
classify, eval, bench-cache, stats, ablate. Every run writes a
resolved-config JSON next to its outputs, and no subcommand writes
outside its --out directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from . import dataset as ds
from .cache import SemanticCache, bench_cache
from .contrastive import DualEncoderModel, TrainConfig, classify_image, train, write_loss_trace
from .errors import ContractError
from .metrics import load_predictions_jsonl, load_tt100k_ground_truth, map_suite
from .tokenizer import KnowledgeBase, Vocab, build_vocab, detokenize, tokenize

log = logging.getLogger(__name__)


def _write_resolved_config(args, out_dir: str) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func" and not callable(v)}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved-config.json"), "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=1, default=str)


def _load_counts(path: str) -> OrderedDict:
    """A JSON object of integer counts by category, in file order; any
    other document raises ContractError naming ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=OrderedDict)
        except json.JSONDecodeError as exc:
            raise ContractError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContractError(f"{path}: expected a JSON object of counts, got {type(doc).__name__}")
    for k, v in doc.items():
        if type(v) is not int:
            raise ContractError(f"{path}: count of {k!r} is not an integer: {v!r}")
    return doc


def _load_profile(profile: str) -> OrderedDict:
    return OrderedDict(ds.LONGTAIL8) if profile == "longtail8" else _load_counts(profile)


def _parse_ratio(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError as exc:
        raise ContractError(f"ratio must look like 2:1, got {text!r}") from exc


# -- subcommands ---------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = ds.SyntheticSignSpec(
        categories=_load_profile(args.profile),
        scene_side=args.scene_side,
        noise=args.noise,
        seed=args.seed,
    )
    scenes, annotations, descriptions = ds.synth_dataset(spec)
    out = args.out
    os.makedirs(os.path.join(out, "scenes"), exist_ok=True)
    for scene_id, img in scenes.items():
        ds.write_ppm(os.path.join(out, "scenes", f"{scene_id}.ppm"), img)
    with open(os.path.join(out, "annotations.json"), "w", encoding="utf-8") as fh:
        json.dump(annotations, fh, indent=1)
    with open(os.path.join(out, "descriptions.json"), "w", encoding="utf-8") as fh:
        json.dump(descriptions, fh, indent=1, ensure_ascii=False)
    _write_resolved_config(args, out)
    print(f"synth: {len(scenes)} scenes, {sum(spec.categories.values())} instances -> {out}")
    return 0


def cmd_build_dataset(args) -> int:
    kb = KnowledgeBase.load(args.kb)
    crops = ds.crop_signs(args.annotations, image_root=args.images)
    out = args.out
    crops_dir = os.path.join(out, "crops")
    os.makedirs(crops_dir, exist_ok=True)
    pairs = []
    for crop, category, image_id, k in crops:
        name = f"{image_id}_{k}_{category}.ppm"
        ds.write_ppm(os.path.join(crops_dir, name), crop)
        pairs.append(ds.PairRecord(
            image=os.path.join("crops", name),
            category=category,
            text=ds.generate_description(category, kb),
        ))
    manifest, tagged = ds.stratified_split(pairs, ratio=_parse_ratio(args.ratio), seed=args.seed)
    ds.pairs_to_jsonl(tagged, os.path.join(out, "pairs.jsonl"))
    with open(os.path.join(out, "split-manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest.to_json(), fh, indent=1)
    _write_resolved_config(args, out)
    print(f"build-dataset: {len(tagged)} pairs "
          f"({manifest.train_total} train / {manifest.test_total} test) -> {out}")
    return 0


def cmd_build_vocab(args) -> int:
    pairs = ds.pairs_from_jsonl(args.pairs)
    corpus = [p.text for p in pairs]
    vocab = build_vocab(corpus, target_size=args.target_size,
                        number_protection=not args.plain)
    os.makedirs(args.out, exist_ok=True)
    vocab.save(os.path.join(args.out, "vocab.json"))
    _write_resolved_config(args, args.out)
    print(f"build-vocab: {len(vocab)} tokens, {len(vocab.merges)} merges -> {args.out}")
    return 0


def cmd_tokenize(args) -> int:
    vocab = Vocab.load(args.vocab)
    seq = tokenize(args.text, vocab)
    surfaces = [vocab.tokens[i] for i in seq.ids]
    doc = {
        "ids": list(seq.ids),
        "tokens": surfaces,
        "protected_spans": [list(s) for s in seq.protected_spans],
        "detokenized": detokenize(seq, vocab),
    }
    print(json.dumps(doc, ensure_ascii=False, indent=1))
    return 0


def _load_split(pairs_path: str, split: str, image_side: int):
    """(images, texts, categories) for one split; images resized floats."""
    pairs = ds.pairs_from_jsonl(pairs_path)
    root = os.path.dirname(os.path.abspath(pairs_path))
    chosen = [p for p in pairs if p.split == split] or ([p for p in pairs] if split == "train" else [])
    images, texts, cats = [], [], []
    for p in chosen:
        img = ds.read_image(os.path.join(root, p.image))
        img = ds.resize_nearest(img, image_side).astype(np.float64) / 255.0
        images.append(img)
        texts.append(p.text)
        cats.append(p.category)
    return images, texts, cats


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        batch_size=args.batch_size,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        gamma_init=args.gamma_init,
        image_side=args.image_side,
    )


def cmd_train(args) -> int:
    config = replace(_train_config(args), number_protection=not args.plain)
    images, texts, cats = _load_split(args.pairs, "train", config.image_side)
    if not images:
        raise ContractError(f"no train pairs found in {args.pairs}")
    model, trace = train(list(zip(images, texts)), config)
    out = args.out
    os.makedirs(out, exist_ok=True)
    model.save(os.path.join(out, "checkpoint"))
    write_loss_trace(os.path.join(out, "loss_trace.csv"), trace)
    classes: dict[str, str] = {}
    for cat, text in zip(cats, texts):
        classes.setdefault(cat, text)
    with open(os.path.join(out, "checkpoint", "classes.json"), "w", encoding="utf-8") as fh:
        json.dump(classes, fh, indent=1, ensure_ascii=False)
    _write_resolved_config(args, out)
    print(f"train: {len(images)} pairs, {config.epochs} epochs; "
          f"loss {trace[0][1]:.4f} -> {trace[-1][1]:.4f}; tau {trace[-1][2]:.2f} -> {out}")
    return 0


def _accuracy_by_category(model, images, cats, classes: dict[str, str], cache=None):
    names = sorted(classes)
    texts = [classes[c] for c in names]
    correct: dict[str, int] = {c: 0 for c in names}
    totals: dict[str, int] = {c: 0 for c in names}
    for img, cat in zip(images, cats):
        probs = classify_image(model, img, texts, cache=cache)
        guess = names[int(np.argmax(probs))]
        totals[cat] = totals.get(cat, 0) + 1
        if guess == cat:
            correct[cat] = correct.get(cat, 0) + 1
    overall = sum(correct.values()) / sum(totals.values()) if totals else 0.0
    per_cat = {c: (correct[c] / totals[c] if totals.get(c) else 0.0) for c in names}
    return overall, per_cat, totals


def cmd_classify(args) -> int:
    model = DualEncoderModel.load(os.path.join(args.model, "checkpoint"))
    with open(os.path.join(args.model, "checkpoint", "classes.json"), encoding="utf-8") as fh:
        classes = json.load(fh)
    side = model.vit.config.image_side
    images, _, cats = _load_split(args.pairs, args.split, side)
    if not images:
        raise ContractError(f"no {args.split} pairs found in {args.pairs}")
    cache = None
    if not args.no_cache:
        cache = SemanticCache(model.text_fingerprint(), max_entries=args.cache_max)
    overall, per_cat, totals = _accuracy_by_category(model, images, cats, classes, cache)
    report = {
        "split": args.split,
        "images": len(images),
        "top1_accuracy": overall,
        "per_category": per_cat,
        "per_category_count": totals,
        "cache": None if cache is None else {
            "hits": cache.stats.hits, "misses": cache.stats.misses,
            "evictions": cache.stats.evictions, "bytes_resident": cache.stats.bytes_resident,
        },
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "classification.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    _write_resolved_config(args, args.out)
    print(f"classify: top-1 accuracy {overall:.4f} over {len(images)} {args.split} images -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    dets = load_predictions_jsonl(args.pred)
    gts = load_tt100k_ground_truth(args.gt)
    counts = None
    if args.train_counts:
        counts = _load_counts(args.train_counts)
    report = map_suite(dets, gts, train_counts=counts)
    os.makedirs(args.out, exist_ok=True)
    report.write_json(os.path.join(args.out, "report.json"))
    report.write_csv(os.path.join(args.out, "report.csv"))
    _write_resolved_config(args, args.out)
    print(f"eval: P={report.precision:.4f} R={report.recall:.4f} "
          f"mAP50={report.map50:.4f} mAP50:95={report.map50_95:.4f} -> {args.out}")
    return 0


def sample_category_codes(n: int) -> list[str]:
    """Deterministic list of n plausible TT100K-style category codes."""
    codes: list[str] = []
    codes += [f"pl{v}" for v in range(5, 205, 5)]
    codes += [f"il{v}" for v in range(50, 100, 10)]
    codes += [f"ph{v / 10:.1f}" for v in range(20, 56)]
    codes += [f"pm{v}" for v in range(5, 56)]
    codes += [f"pw{v / 100:.2f}" for v in range(225, 475, 25)]
    codes += [f"w{v}" for v in range(1, 68)]
    codes += [f"i{v}" for v in range(1, 16)]
    codes += [f"p{v}" for v in range(1, 30)]
    if n > len(codes):
        codes += [f"pl{v}" for v in range(205, 205 + 5 * (n - len(codes)), 5)]
    return codes[:n]


def cmd_bench_cache(args) -> int:
    kb = KnowledgeBase.load()
    codes = sample_category_codes(args.texts)
    texts = [ds.generate_description(c, kb) for c in codes]
    if args.model:
        model = DualEncoderModel.load(os.path.join(args.model, "checkpoint"))
    else:
        config = TrainConfig(seed=args.seed)
        from .contrastive import init_model

        vocab = build_vocab(texts, target_size=config.vocab_target)
        model = init_model(config, vocab)
    side = model.vit.config.image_side
    rng = np.random.default_rng(args.seed)
    images = [rng.random((side, side, 3)) for _ in range(args.images)]
    report = bench_cache(model, texts, images, repeats=args.repeats)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "bench.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    _write_resolved_config(args, args.out)
    print(f"bench-cache: cold {report['cold_ips']:.2f} ips, warm {report['warm_ips']:.2f} ips, "
          f"speedup {report['speedup']:.1f}x -> {args.out}")
    return 0


def cmd_stats(args) -> int:
    pairs = ds.pairs_from_jsonl(args.pairs) if args.pairs else []
    report = ds.dataset_stats(pairs, args.annotations)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    _write_resolved_config(args, args.out)
    share = report["small_target"]["share"]
    print(f"stats: {len(report['per_category'])} categories, "
          f"small-target share {share:.3f} -> {args.out}")
    return 0


# -- ablation ladder --------------------------------------------------------------


def _synth_split_in_memory(seed: int, profile: OrderedDict, image_side: int):
    """Synth scenes, crop, describe, and split without touching disk."""
    spec = ds.SyntheticSignSpec(categories=profile, seed=seed)
    scenes, annotations, descriptions = ds.synth_dataset(spec)
    crops = ds.crop_signs(annotations, images=scenes)
    kb = KnowledgeBase.load()
    pairs = []
    arrays = []
    for idx, (crop, category, image_id, k) in enumerate(crops):
        pairs.append(ds.PairRecord(
            image=f"{image_id}_{k}", category=category,
            text=ds.generate_description(category, kb),
        ))
        arrays.append(ds.resize_nearest(crop, image_side).astype(np.float64) / 255.0)
    manifest, tagged = ds.stratified_split(pairs, seed=seed)
    train_set = [(arrays[i], p.category, p.text) for i, p in enumerate(tagged) if p.split == "train"]
    test_set = [(arrays[i], p.category, p.text) for i, p in enumerate(tagged) if p.split == "test"]
    return train_set, test_set, descriptions


def _run_ablation_row(name, train_set, test_set, class_text_of, config, use_cache,
                      reuse=None):
    """Train one ladder row and measure held-out accuracy and throughput.

    ``reuse`` skips training and scores an already-trained (model, trace);
    the cache row uses it, since adding the cache retrains nothing.
    """
    if reuse is None:
        pairs = [(img, class_text_of(cat)) for img, cat, _ in train_set]
        model, trace = train(pairs, config)
    else:
        model, trace = reuse
    classes = {cat: class_text_of(cat) for _, cat, _ in train_set}
    cache = SemanticCache(model.text_fingerprint()) if use_cache else None
    images = [img for img, _, _ in test_set]
    cats = [cat for _, cat, _ in test_set]
    t0 = time.perf_counter()
    overall, per_cat, _ = _accuracy_by_category(model, images, cats, classes, cache)
    elapsed = time.perf_counter() - t0
    return {
        "row": name,
        "accuracy": overall,
        "per_category": per_cat,
        "fps": len(images) / elapsed if elapsed > 0 else float("inf"),
        "final_loss": trace[-1][1],
        "first_loss": trace[0][1],
    }, (model, trace)


def cmd_ablate(args) -> int:
    profile = _load_profile(args.profile)
    config = _train_config(args)
    train_set, test_set, descriptions = _synth_split_in_memory(
        args.seed, profile, config.image_side
    )
    category_index = {cat: i for i, cat in enumerate(sorted(profile))}

    plain_cfg = replace(config, number_protection=False)
    rule_cfg = replace(config, number_protection=True)
    # (row, class text of a category, config, cache on); the cache row reuses the model before it
    ladder = [
        ("serial-label baseline", lambda cat: f"category {category_index[cat]}", plain_cfg, False),
        ("text-label classifier (plain BPE)", descriptions.__getitem__, plain_cfg, False),
        ("rule tokenizer on", descriptions.__getitem__, rule_cfg, False),
        ("semantic cache on", descriptions.__getitem__, rule_cfg, True),
    ]
    rows, trained = [], None
    for name, class_text_of, cfg, use_cache in ladder:
        row, trained = _run_ablation_row(name, train_set, test_set, class_text_of, cfg, use_cache,
                                         reuse=trained if use_cache else None)
        rows.append(row)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "ablation.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    with open(os.path.join(args.out, "ablation.csv"), "w", encoding="utf-8") as fh:
        fh.write("row,accuracy,fps\n")
        for r in rows:
            fh.write(f"{r['row']},{r['accuracy']:.6f},{r['fps']:.3f}\n")
    _write_resolved_config(args, args.out)
    width = max(len(r["row"]) for r in rows)
    print(f"{'row'.ljust(width)}  accuracy      fps")
    for r in rows:
        print(f"{r['row'].ljust(width)}  {r['accuracy']:.4f}    {r['fps']:8.2f}")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsrmcl",
        description="Two-stage traffic-sign recognition mathematics at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic long-tail sign dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--profile", default="longtail8")
    p.add_argument("--scene-side", type=int, default=128)
    p.add_argument("--noise", type=float, default=6.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-dataset", help="crop signs, describe, and split 2:1")
    p.add_argument("--annotations", required=True)
    p.add_argument("--images", required=True, help="root directory of the scene images")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio", default="2:1")
    p.add_argument("--kb", default=None, help="knowledge-base JSON override")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("build-vocab", help="learn a BPE vocabulary from pair texts")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target-size", type=int, default=2048)
    p.add_argument("--plain", action="store_true", help="disable number protection")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("tokenize", help="tokenize one text with a saved vocabulary "
                       "under the number protection it was built with")
    p.add_argument("--vocab", required=True)
    p.add_argument("--text", required=True)
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("train", help="contrastively train the dual encoders")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.add_argument("--plain", action="store_true", help="disable the rule tokenizer")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify split images against class texts")
    p.add_argument("--model", required=True, help="directory produced by train")
    p.add_argument("--pairs", required=True)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--out", required=True)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--cache-max", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="detection metrics from predictions + ground truth")
    p.add_argument("--pred", required=True, help="predictions JSONL")
    p.add_argument("--gt", required=True, help="TT100K-style annotation JSON")
    p.add_argument("--train-counts", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench-cache", help="cold/warm cache throughput benchmark")
    p.add_argument("--model", default=None)
    p.add_argument("--texts", type=int, default=221)
    p.add_argument("--images", type=int, default=100)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_cache)

    p = sub.add_parser("stats", help="dataset statistics report")
    p.add_argument("--pairs", default=None)
    p.add_argument("--annotations", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("ablate", help="run the component ladder on the synthetic benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--profile", default="longtail8")
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--gamma-init", type=float, default=float(np.log(14.0)))
    p.add_argument("--image-side", type=int, default=32)


def run(argv=None) -> int:
    """Dispatch like main() but never call sys.exit; returns the code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args) or 0)
    except (ContractError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run())
