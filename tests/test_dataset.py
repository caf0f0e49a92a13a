"""Dataset construction: PPM I/O, cropping, descriptions, the 2:1
stratified split, the synthetic generator, and statistics."""

import json
import logging
import re
from collections import Counter, OrderedDict

import numpy as np
import pytest

from tsrmcl.dataset import (
    LONGTAIL8,
    PALETTE,
    PairRecord,
    SyntheticSignSpec,
    crop_signs,
    dataset_stats,
    generate_description,
    load_annotations,
    pairs_from_jsonl,
    pairs_to_jsonl,
    read_ppm,
    resize_nearest,
    stratified_split,
    synth_dataset,
    write_ppm,
)
from tsrmcl.errors import ContractError
from tsrmcl.tokenizer import KnowledgeBase, Vocab, build_vocab, tokenize


@pytest.fixture(scope="module")
def kb():
    return KnowledgeBase.load()


class TestPPM:
    def test_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(7, 5, 3)).astype(np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        np.testing.assert_array_equal(back, img)

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ContractError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3)))

    def test_reads_comments(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        raw = b"P6\n# a comment\n2 2\n255\n" + img.tobytes()
        path = tmp_path / "c.ppm"
        path.write_bytes(raw)
        np.testing.assert_array_equal(read_ppm(path), img)

    @pytest.mark.parametrize("raw, detail", [
        (b"P6\n2 2\n255\n" + bytes(11), "truncated PPM payload, 11 of 12 bytes"),
        (b"P6\n2 2\n255", "truncated PPM payload, 0 of 12 bytes"),
        (b"P6\n2 2\n", "integer width, height and maxval"),
        (b"P6\n2 x\n255\n" + bytes(12), "integer width, height and maxval"),
        (b"P6\n-2 2\n255\n" + bytes(12), "integer width, height and maxval"),
    ], ids=["short-payload", "no-payload", "short-header", "non-integer", "negative"])
    def test_malformed_rejected_naming_path(self, tmp_path, raw, detail):
        path = tmp_path / "bad.ppm"
        path.write_bytes(raw)
        with pytest.raises(ContractError, match=f"^{path}: .*{detail}"):
            read_ppm(path)


class TestResize:
    def test_identity(self, rng):
        img = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
        np.testing.assert_array_equal(resize_nearest(img, 8), img)

    def test_exact_downscale_samples_centers(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4, 1)
        out = resize_nearest(img, 2)
        np.testing.assert_array_equal(out.reshape(2, 2), [[5, 7], [13, 15]])


class TestCropSigns:
    def _toy_annotations(self):
        return {
            "imgs": {
                "s1": {"path": "s1.ppm", "objects": [
                    {"category": "pl40", "bbox": {"xmin": 2, "ymin": 3, "xmax": 6, "ymax": 8}},
                    {"category": "pn", "bbox": {"xmin": 0, "ymin": 0, "xmax": 4, "ymax": 4}},
                ]},
            }
        }

    def test_identity_crop(self, rng):
        img = rng.integers(0, 256, size=(5, 5, 3)).astype(np.uint8)
        ann = {"imgs": {"a": {"path": "", "objects": [
            {"category": "x", "bbox": {"xmin": 0, "ymin": 0, "xmax": 5, "ymax": 5}}]}}}
        crops = crop_signs(ann, images={"a": img})
        assert len(crops) == 1
        np.testing.assert_array_equal(crops[0][0], img)

    def test_count_conservation_and_pixel_exactness(self, rng):
        img = rng.integers(0, 256, size=(10, 10, 3)).astype(np.uint8)
        crops = crop_signs(self._toy_annotations(), images={"s1": img})
        assert len(crops) == 2
        np.testing.assert_array_equal(crops[0][0], img[3:8, 2:6])
        np.testing.assert_array_equal(crops[1][0], img[0:4, 0:4])
        assert [c[1] for c in crops] == ["pl40", "pn"]

    def test_out_of_bounds_clamped_with_warning(self, rng, caplog):
        img = rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8)
        ann = {"imgs": {"a": {"path": "", "objects": [
            {"category": "x", "bbox": {"xmin": -2, "ymin": 1, "xmax": 9, "ymax": 3}}]}}}
        with caplog.at_level(logging.WARNING):
            crops = crop_signs(ann, images={"a": img})
        assert "clamped" in caplog.text
        np.testing.assert_array_equal(crops[0][0], img[1:3, 0:4])

    def test_box_clamped_to_empty_dropped_with_warning(self, rng, caplog):
        img = rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8)
        ann = {"imgs": {"a": {"path": "", "objects": [
            {"category": "x", "bbox": {"xmin": 6, "ymin": 1, "xmax": 9, "ymax": 3}},
            {"category": "y", "bbox": {"xmin": 1, "ymin": 1, "xmax": 3, "ymax": 3}}]}}}
        with caplog.at_level(logging.WARNING):
            crops = crop_signs(ann, images={"a": img})
        assert [(c[1], c[3]) for c in crops] == [("y", 1)]
        np.testing.assert_array_equal(crops[0][0], img[1:3, 1:3])
        assert "dropping empty bbox [6.0, 1.0, 9.0, 3.0] of a" in caplog.text

    def test_unreadable_image_skipped_pipeline_continues(self, tmp_path, rng, caplog):
        img = rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8)
        write_ppm(tmp_path / "ok.ppm", img)
        ann = {"imgs": {
            "bad": {"path": "missing.ppm", "objects": [
                {"category": "x", "bbox": {"xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}}]},
            "good": {"path": "ok.ppm", "objects": [
                {"category": "y", "bbox": {"xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}}]},
        }}
        with caplog.at_level(logging.WARNING):
            crops = crop_signs(ann, image_root=tmp_path)
        assert len(crops) == 1
        assert crops[0][1] == "y"
        assert "unreadable" in caplog.text

    @pytest.mark.parametrize("obj, field", [
        ({"category": "x", "bbox": {"xmin": 0, "ymin": 0, "xmax": 2}}, "'ymax'"),
        ({"category": "x", "bbox": {"xmin": 0, "ymin": "top", "xmax": 2, "ymax": 2}}, "bbox.ymin"),
        ({"category": "x", "bbox": {"xmin": None, "ymin": 0, "xmax": 2, "ymax": 2}}, "bbox.xmin"),
        ({"category": "x", "bbox": {"xmin": 0, "ymin": 0, "xmax": float("nan"), "ymax": 2}},
         "bbox.xmax"),
        ({"category": "x"}, "'bbox'"),
        ({"bbox": {"xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}}, "'category'"),
    ], ids=["missing-edge", "text-edge", "null-edge", "nan-edge", "no-bbox", "no-category"])
    def test_malformed_object_rejected_naming_it(self, rng, obj, field):
        img = rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8)
        good = {"category": "y", "bbox": {"xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}}
        ann = {"imgs": {"a": {"path": "", "objects": [good]},
                        "b": {"path": "", "objects": [good, obj]}}}
        with pytest.raises(ContractError, match=rf"imgs\[b\]\.objects\[1\]: .*{re.escape(field)}"):
            crop_signs(ann, images={"a": img, "b": img})

    def test_malformed_object_in_unreadable_image_rejected(self, tmp_path):
        ann = {"imgs": {"bad": {"path": "missing.ppm", "objects": [
            {"category": "x", "bbox": {"xmin": 0, "ymin": 0, "xmax": 0, "ymax": 2}}]}}}
        with pytest.raises(ContractError, match=r"imgs\[bad\]\.objects\[0\]: degenerate box"):
            crop_signs(ann, image_root=tmp_path)

    def test_truncated_scene_skipped_good_crops_returned(self, tmp_path, rng, caplog):
        box = {"xmin": 1, "ymin": 1, "xmax": 3, "ymax": 4}
        scenes = {f"s{i}": rng.integers(0, 256, size=(5, 6, 3)).astype(np.uint8) for i in range(3)}
        for name, img in scenes.items():
            write_ppm(tmp_path / f"{name}.ppm", img)
        raw = (tmp_path / "s1.ppm").read_bytes()
        (tmp_path / "s1.ppm").write_bytes(raw[:-7])
        ann = {"imgs": {name: {"path": f"{name}.ppm", "objects": [{"category": name, "bbox": box}]}
                        for name in scenes}}
        with caplog.at_level(logging.WARNING):
            crops = crop_signs(ann, image_root=tmp_path)
        assert [c[1] for c in crops] == ["s0", "s2"]
        for crop, name, _, _ in crops:
            np.testing.assert_array_equal(crop, scenes[name][1:4, 1:3])
        assert "s1.ppm" in caplog.text and "truncated PPM payload" in caplog.text

    def test_malformed_json_fatal_with_location(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text('{"imgs": {')
        with pytest.raises(ContractError, match="line 1"):
            load_annotations(path)


class TestDescriptions:
    def test_mandatory_straight_matches_regulation_phrase(self, kb):
        assert generate_description("i1", kb) == (
            "a circular blue sign with a white arrow indicating straight ahead"
        )

    def test_unknown_code_fallback(self, kb, caplog):
        with caplog.at_level(logging.WARNING):
            text = generate_description("zz9", kb)
        assert text == "a traffic sign of category zz9"
        assert "unknown category code" in caplog.text

    def test_pl40_contains_protected_numeral(self, kb):
        text = generate_description("pl40", kb)
        vocab = build_vocab([text], target_size=256)
        seq = tokenize(text, vocab)
        surfaces = [vocab.tokens[i] for i in seq.ids]
        assert surfaces.count("40") == 1

    def test_deterministic_and_total(self, kb):
        codes = ["pl40", "pl80", "ph2.5", "pm55", "pw3.25", "il60", "i5", "ip",
                 "pn", "pne", "ps", "w13", "w57", "w99", "p5", "pr60", "zz9"]
        first = [generate_description(c, kb) for c in codes]
        second = [generate_description(c, kb) for c in codes]
        assert first == second
        assert all(first)

    def test_all_kb_descriptions_tokenize_without_unk(self, kb):
        codes = ["pl40", "pl80", "ph2.5", "pm55", "il60", "i1", "i5", "ip",
                 "pn", "pne", "ps", "w13", "w57", "p5", "p23"]
        corpus = [generate_description(c, kb) for c in codes]
        vocab = build_vocab(corpus, target_size=2048)
        for text in corpus:
            seq = tokenize(text, vocab)
            assert vocab.unk_id not in seq.ids


def make_pairs(counts: dict[str, int]):
    pairs = []
    for cat, n in counts.items():
        for i in range(n):
            pairs.append(PairRecord(image=f"{cat}_{i}.ppm", category=cat, text=f"sign {cat}"))
    return pairs


class TestStratifiedSplit:
    def test_exact_thirds(self):
        manifest, tagged = stratified_split(make_pairs({"a": 9}), seed=1)
        assert manifest.per_category["a"] == {"train": 6, "test": 3}
        assert Counter(p.split for p in tagged) == {"train": 6, "test": 3}

    def test_singleton_goes_to_train(self):
        manifest, tagged = stratified_split(make_pairs({"a": 9, "b": 1}), seed=1)
        assert manifest.per_category["b"] == {"train": 1, "test": 0}

    def test_paper_scale_totals(self):
        """221 long-tail categories summing to 24,715 split exactly
        16,477 / 8,238."""
        counts = paper_scale_counts()
        assert sum(counts.values()) == 24715
        manifest, tagged = stratified_split(make_pairs(counts), seed=0)
        assert manifest.train_total == 16477
        assert manifest.test_total == 8238

    def test_partition_and_per_category_tolerance(self, rng):
        counts = {f"c{i}": int(rng.integers(1, 40)) for i in range(30)}
        manifest, tagged = stratified_split(make_pairs(counts), seed=3)
        assert all(p.split in ("train", "test") for p in tagged)
        for cat, n in counts.items():
            got = manifest.per_category[cat]
            assert got["train"] + got["test"] == n
            if n > 1:
                assert abs(got["train"] - n * 2 / 3) <= 1.0

    def test_deterministic(self):
        pairs = make_pairs({"a": 7, "b": 12, "c": 2})
        a = stratified_split(pairs, seed=9)[1]
        b = stratified_split(pairs, seed=9)[1]
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            stratified_split([], seed=0)


def paper_scale_counts() -> dict[str, int]:
    """221 categories in TT100K-like long-tail proportions, total 24,715."""
    counts = {}
    # 31 head categories with large counts, 69 middle, 121 tail
    head = [1400, 1250, 1100, 980, 900, 820, 760, 700, 650, 600,
            560, 520, 480, 450, 420, 390, 360, 340, 320, 300,
            285, 270, 255, 240, 225, 210, 200, 190, 180, 170, 160]
    counts.update({f"h{i}": c for i, c in enumerate(head)})
    for i in range(69):
        counts[f"m{i}"] = 100 - i  # 100 down to 32
    for i in range(121):
        counts[f"t{i}"] = (i % 9) + 1  # 1..9 repeating
    total = sum(counts.values())
    counts["h0"] += 24715 - total
    assert counts["h0"] > 100
    return counts


class TestSynthDataset:
    def test_longtail8_counts_exact(self):
        scenes, annotations, descriptions = synth_dataset(SyntheticSignSpec(seed=7))
        counts = Counter(
            o["category"] for e in annotations["imgs"].values() for o in e["objects"]
        )
        assert counts == Counter(LONGTAIL8)
        assert sum(counts.values()) == 350
        assert set(descriptions) == set(LONGTAIL8)

    def test_same_seed_byte_identical(self):
        a = synth_dataset(SyntheticSignSpec(seed=3))[0]
        b = synth_dataset(SyntheticSignSpec(seed=3))[0]
        assert list(a) == list(b)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_different_seed_differs(self):
        a = synth_dataset(SyntheticSignSpec(seed=3))[0]
        b = synth_dataset(SyntheticSignSpec(seed=4))[0]
        assert any(not np.array_equal(a[k], b.get(k, np.zeros(1))) for k in a)

    def test_dominant_color_matches_kb(self, kb):
        scenes, annotations, _ = synth_dataset(SyntheticSignSpec(seed=5))
        crops = crop_signs(annotations, images=scenes)
        names = ["red", "blue", "yellow"]
        cols = np.array([PALETTE[n] for n in names], dtype=float)
        ok = 0
        for crop, cat, _, _ in crops:
            want = kb.first_match("code.color", cat)
            px = crop.reshape(-1, 3).astype(float)
            d = np.linalg.norm(px[:, None, :] - cols[None, :, :], axis=2)
            nearest = d.argmin(axis=1)
            confident = d[np.arange(len(px)), nearest] < 80
            dom = names[int(np.bincount(nearest[confident], minlength=3).argmax())]
            ok += int(dom == want)
        assert ok / len(crops) >= 0.99

    def test_bboxes_inside_scenes(self):
        scenes, annotations, _ = synth_dataset(SyntheticSignSpec(seed=6))
        for scene_id, entry in annotations["imgs"].items():
            h, w, _ = scenes[scene_id].shape
            for obj in entry["objects"]:
                bb = obj["bbox"]
                assert 0 <= bb["xmin"] < bb["xmax"] <= w
                assert 0 <= bb["ymin"] < bb["ymax"] <= h

    def test_invalid_spec_rejected(self):
        with pytest.raises(ContractError):
            SyntheticSignSpec(categories={"a": 0})
        with pytest.raises(ContractError):
            SyntheticSignSpec(scene_side=16, max_radius=22)


class TestStats:
    def test_all_small_boxes(self):
        ann = {"imgs": {"i": {"path": "", "objects": [
            {"category": "a", "bbox": {"xmin": 0, "ymin": 0, "xmax": 16, "ymax": 16}},
            {"category": "b", "bbox": {"xmin": 0, "ymin": 0, "xmax": 16, "ymax": 16}},
        ]}}}
        report = dataset_stats([], ann)
        assert report["small_target"] == {"count": 2, "total": 2, "share": 1.0}

    def test_mixed_small_share(self):
        objs = [
            {"category": "a", "bbox": {"xmin": 0, "ymin": 0, "xmax": 31.5, "ymax": 31.5}},
            {"category": "a", "bbox": {"xmin": 0, "ymin": 0, "xmax": 32, "ymax": 10}},
            {"category": "a", "bbox": {"xmin": 0, "ymin": 0, "xmax": 10, "ymax": 40}},
            {"category": "a", "bbox": {"xmin": 0, "ymin": 0, "xmax": 64, "ymax": 64}},
        ]
        ann = {"imgs": {"i": {"path": "", "objects": objs}}}
        report = dataset_stats([], ann)
        assert report["small_target"]["count"] == 1  # only the first has both sides < 32
        assert report["small_target"]["share"] == 0.25

    def test_strata_from_train_counts(self):
        pairs = []
        for cat, n_train, n_test in (("big", 101, 50), ("mid", 100, 50), ("sml", 9, 4)):
            pairs += [PairRecord(f"{cat}{i}", cat, "t", "train") for i in range(n_train)]
            pairs += [PairRecord(f"{cat}x{i}", cat, "t", "test") for i in range(n_test)]
        report = dataset_stats(pairs)
        assert report["strata"]["head"]["categories"] == ["big"]
        assert report["strata"]["middle"]["categories"] == ["mid"]
        assert report["strata"]["tail"]["categories"] == ["sml"]


class TestPairsJsonl:
    def test_round_trip(self, tmp_path):
        pairs = [
            PairRecord("crops/a.ppm", "pl40", "a circular red sign", "train"),
            PairRecord("crops/b.ppm", "pn", "a circular red sign indicating no parking", "test"),
        ]
        path = tmp_path / "pairs.jsonl"
        pairs_to_jsonl(pairs, path)
        assert pairs_from_jsonl(path) == pairs
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert set(rows[0]) == {"image", "category", "text", "split"}

    def test_empty_text_rejected(self):
        with pytest.raises(ContractError):
            PairRecord("x.ppm", "pl40", "", "train")

    @pytest.mark.parametrize("line, detail", [
        ('{"image": "a.ppm", "text": "a red sign"}', "missing field 'category'"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"image": "a.ppm", "category": "pl40", "text": "a red sign", "split": "dev"}',
         "split tag must be train/test"),
        ("{not json", "Expecting property name"),
    ], ids=["missing-category", "non-object", "bad-split", "bad-json"])
    def test_malformed_line_rejected_naming_it(self, tmp_path, line, detail):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"image": "b.ppm", "category": "pn", "text": "no parking"}\n\n' + line + "\n")
        with pytest.raises(ContractError, match=f"{re.escape(str(path))}:3: .*{detail}"):
            pairs_from_jsonl(path)
