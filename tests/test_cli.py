"""End-to-end CLI pipeline on a miniature synthetic dataset, plus the
dispatch/exit-code contract."""

import json
import os
import shutil

import numpy as np
import pytest

from tsrmcl.cli import run, sample_category_codes
from tsrmcl.dataset import write_ppm


MINI_PROFILE = {"pl40": 12, "i5": 12, "w57": 9, "ps": 6}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> build-dataset -> train once for the whole module."""
    root = tmp_path_factory.mktemp("pipeline")
    profile = root / "profile.json"
    profile.write_text(json.dumps(MINI_PROFILE))

    synth_dir = root / "synth"
    assert run(["synth", "--out", str(synth_dir), "--seed", "3",
                "--profile", str(profile)]) == 0

    data_dir = root / "data"
    assert run(["build-dataset",
                "--annotations", str(synth_dir / "annotations.json"),
                "--images", str(synth_dir),
                "--out", str(data_dir), "--seed", "3"]) == 0

    model_dir = root / "model"
    assert run(["train", "--pairs", str(data_dir / "pairs.jsonl"),
                "--out", str(model_dir), "--epochs", "25", "--seed", "3",
                "--batch-size", "16"]) == 0
    return root, synth_dir, data_dir, model_dir


class TestDispatch:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag_usage_error(self):
        assert run(["synth"]) == 2

    def test_ablate_has_no_plain_flag(self, tmp_path):
        assert run(["ablate", "--out", str(tmp_path), "--plain"]) == 2

    @pytest.mark.parametrize("pred_line", [None, "[1, 2, 3]"],
                             ids=["missing-files", "non-object-prediction"])
    def test_runtime_error_is_one(self, tmp_path, capsys, pred_line):
        pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.json"
        if pred_line is not None:
            pred.write_text(pred_line + "\n")
            gt.write_text('{"imgs": {}}')
        assert run(["eval", "--pred", str(pred), "--gt", str(gt),
                    "--out", str(tmp_path / "out")]) == 1
        located = f"{pred}:1: " if pred_line is not None else ""
        assert capsys.readouterr().err.startswith(f"error: {located}")


class TestCountsFiles:
    """A profile (synth, ablate) or train-counts file (eval) that is not a
    JSON object of integer counts fails with an error naming the file."""

    @pytest.mark.parametrize("doc, detail", [
        ("[1]", "expected a JSON object of counts, got list"),
        ('{"pl40": [1]}', "count of 'pl40' is not an integer: [1]"),
        ('{"pl40": 2.5}', "count of 'pl40' is not an integer: 2.5"),
        ('{"pl40": true}', "count of 'pl40' is not an integer: True"),
        ('{"pl40": ', "Expecting value"),
    ], ids=["list", "list-count", "float-count", "bool-count", "bad-json"])
    @pytest.mark.parametrize("command", ["synth", "ablate", "eval"])
    def test_bad_counts_file_is_one_naming_it(self, tmp_path, capsys, command, doc, detail):
        counts = tmp_path / "counts.json"
        counts.write_text(doc)
        out = str(tmp_path / "out")
        if command == "eval":
            pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.json"
            pred.write_text("")
            gt.write_text('{"imgs": {}}')
            argv = ["eval", "--pred", str(pred), "--gt", str(gt), "--out", out,
                    "--train-counts", str(counts)]
        else:
            argv = [command, "--out", out, "--profile", str(counts)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {counts}: {detail}")
        assert not os.path.exists(out)


OK_OBJECT = '{"category": "pl40", "bbox": {"xmin": 1, "ymin": 2, "xmax": 9, "ymax": 12}}'


def bad_object(bbox):
    obj = '{"category": "pl40", "bbox": %s}' % bbox
    return '{"imgs": {"7": {"path": "s.ppm", "objects": [OK, %s]}}}' % obj


class TestMalformedAnnotations:
    """eval, stats and build-dataset read TT100K files through one checked
    walk, so each rejects a malformed file with the same located error."""

    @pytest.mark.parametrize("doc, where, detail", [
        ('{"imgs": []}', "", "expected a JSON object, got list"),
        ('{"imgs": {"7": []}}', "imgs[7]: ", "expected a JSON object, got list"),
        ('{"imgs": {"7": {"path": "s.ppm", "objects": [OK, [1, 2, 9, 12]]}}}',
         "imgs[7].objects[1]: ", "expected a JSON object, got list"),
        (bad_object('{"xmin": 1, "ymin": 2, "xmax": 9}'), "imgs[7].objects[1]: ",
         "missing field 'ymax'"),
        (bad_object('{"xmin": 1, "ymin": "top", "xmax": 9, "ymax": 12}'), "imgs[7].objects[1]: ",
         "bbox.ymin: could not convert string to float: 'top'"),
        (bad_object('{"xmin": 1, "ymin": 2, "xmax": NaN, "ymax": 12}'), "imgs[7].objects[1]: ",
         "bbox.xmax: not a finite number: nan"),
        (bad_object('{"xmin": 1, "ymin": 2, "xmax": Infinity, "ymax": 12}'),
         "imgs[7].objects[1]: ", "bbox.xmax: not a finite number: inf"),
        (bad_object('{"xmin": 9, "ymin": 2, "xmax": 9, "ymax": 12}'), "imgs[7].objects[1]: ",
         "degenerate box: [9.0, 2.0, 9.0, 12.0]"),
    ], ids=["imgs-list", "entry-list", "object-list", "missing-edge", "text-edge", "nan-edge",
            "infinite-edge", "zero-extent"])
    def test_every_reader_rejects_with_the_same_located_error(self, tmp_path, capsys,
                                                                doc, where, detail):
        gt = tmp_path / "gt.json"
        gt.write_text(doc.replace("OK", OK_OBJECT))
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"image_id": "7", "category": "pl40", "bbox": [1, 2, 9, 12], '
                        '"confidence": 0.5}\n')
        images = tmp_path / "scenes"
        images.mkdir()
        write_ppm(images / "s.ppm", np.zeros((16, 16, 3), dtype=np.uint8))
        commands = {
            "eval": ["eval", "--pred", str(pred), "--gt", str(gt)],
            "stats": ["stats", "--annotations", str(gt)],
            "build-dataset": ["build-dataset", "--annotations", str(gt), "--images", str(images)],
        }
        capsys.readouterr()
        for name, argv in commands.items():
            assert run(argv + ["--out", str(tmp_path / name)]) == 1, name
            assert capsys.readouterr().err == f"error: {gt}: {where}{detail}\n", name


class TestSynth:
    def test_outputs_and_resolved_config(self, pipeline):
        _, synth_dir, _, _ = pipeline
        assert (synth_dir / "annotations.json").exists()
        assert (synth_dir / "descriptions.json").exists()
        assert (synth_dir / "resolved-config.json").exists()
        ann = json.loads((synth_dir / "annotations.json").read_text())
        n = sum(len(e["objects"]) for e in ann["imgs"].values())
        assert n == sum(MINI_PROFILE.values())
        scenes = list((synth_dir / "scenes").glob("*.ppm"))
        assert len(scenes) == len(ann["imgs"])

    def test_writes_stay_inside_out_dir(self, pipeline):
        root, synth_dir, _, _ = pipeline
        outside = [p for p in root.iterdir()
                   if p.name not in ("synth", "data", "model", "profile.json")
                   and not p.name.startswith("eval")
                   and not p.name.startswith("tok")]
        assert outside == []


class TestBuildDataset:
    def test_pairs_and_manifest(self, pipeline):
        _, _, data_dir, _ = pipeline
        pairs = [json.loads(s) for s in (data_dir / "pairs.jsonl").read_text().splitlines()]
        assert len(pairs) == sum(MINI_PROFILE.values())
        assert all(p["split"] in ("train", "test") for p in pairs)
        manifest = json.loads((data_dir / "split-manifest.json").read_text())
        assert manifest["train_total"] + manifest["test_total"] == len(pairs)
        # every crop exists and category descriptions are non-empty
        for p in pairs:
            assert (data_dir / p["image"]).exists()
            assert p["text"]


class TestVocabAndTokenize:
    def test_build_vocab_and_tokenize(self, pipeline, tmp_path, capsys):
        _, _, data_dir, _ = pipeline
        vocab_dir = tmp_path / "vocab"
        assert run(["build-vocab", "--pairs", str(data_dir / "pairs.jsonl"),
                    "--out", str(vocab_dir)]) == 0
        capsys.readouterr()
        assert run(["tokenize", "--vocab", str(vocab_dir / "vocab.json"),
                    "--text", "speed limit 40 km/h"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tokens"][0] == "[CLS]"
        assert doc["tokens"][-1] == "[SEP]"
        assert doc["tokens"].count("40") == 1
        assert doc["detokenized"] == "speed limit 40 km/h"

    def test_tokenize_follows_the_vocab_policy(self, pipeline, tmp_path, capsys):
        _, _, data_dir, _ = pipeline
        vocab = tmp_path / "plain" / "vocab.json"
        assert run(["build-vocab", "--pairs", str(data_dir / "pairs.jsonl"),
                    "--out", str(vocab.parent), "--plain"]) == 0
        capsys.readouterr()
        assert run(["tokenize", "--vocab", str(vocab), "--text", "speed limit 987.25 km/h"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "[NUM]" not in doc["tokens"]
        assert doc["protected_spans"] == []
        assert run(["tokenize", "--vocab", str(vocab), "--text", "40", "--plain"]) == 2


class TestTrainClassify:
    def test_train_outputs(self, pipeline):
        _, _, _, model_dir = pipeline
        assert (model_dir / "checkpoint" / "manifest.json").exists()
        assert (model_dir / "checkpoint" / "params.npz").exists()
        assert (model_dir / "checkpoint" / "vocab.json").exists()
        assert (model_dir / "checkpoint" / "classes.json").exists()
        trace = (model_dir / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,mean_loss,tau"
        assert len(trace) == 26

    def test_classify_report(self, pipeline, tmp_path):
        _, _, data_dir, model_dir = pipeline
        out = tmp_path / "cls"
        assert run(["classify", "--model", str(model_dir),
                    "--pairs", str(data_dir / "pairs.jsonl"),
                    "--out", str(out)]) == 0
        report = json.loads((out / "classification.json").read_text())
        assert report["split"] == "test"
        assert 0.0 <= report["top1_accuracy"] <= 1.0
        assert report["cache"]["misses"] >= 1

    def test_classify_bad_checkpoint_is_one(self, pipeline, tmp_path, capsys):
        _, _, data_dir, model_dir = pipeline
        broken = tmp_path / "model"
        shutil.copytree(model_dir, broken)
        manifest_path = broken / "checkpoint" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["text_config"]["bogus"] = 1
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["classify", "--model", str(broken), "--pairs", str(data_dir / "pairs.jsonl"),
                    "--out", str(tmp_path / "cls")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "text_config" in err and "'bogus'" in err

    def test_classify_reports_evictions_and_resident_bytes(self, pipeline, tmp_path):
        _, _, data_dir, model_dir = pipeline
        out = tmp_path / "cls"
        assert run(["classify", "--model", str(model_dir),
                    "--pairs", str(data_dir / "pairs.jsonl"),
                    "--out", str(out), "--cache-max", "1"]) == 0
        cache = json.loads((out / "classification.json").read_text())["cache"]
        assert cache["evictions"] > 0
        assert cache["evictions"] == cache["misses"] - 1  # one entry stays resident
        assert cache["bytes_resident"] == 32 * 8  # one float64 embedding of width 32

    def test_classify_no_cache_matches_cached(self, pipeline, tmp_path):
        _, _, data_dir, model_dir = pipeline
        a = tmp_path / "with_cache"
        b = tmp_path / "no_cache"
        assert run(["classify", "--model", str(model_dir),
                    "--pairs", str(data_dir / "pairs.jsonl"), "--out", str(a)]) == 0
        assert run(["classify", "--model", str(model_dir),
                    "--pairs", str(data_dir / "pairs.jsonl"),
                    "--out", str(b), "--no-cache"]) == 0
        ra = json.loads((a / "classification.json").read_text())
        rb = json.loads((b / "classification.json").read_text())
        assert ra["top1_accuracy"] == rb["top1_accuracy"]
        assert ra["per_category"] == rb["per_category"]


class TestEval:
    def test_eval_against_own_annotations(self, pipeline, tmp_path):
        _, synth_dir, _, _ = pipeline
        ann = json.loads((synth_dir / "annotations.json").read_text())
        pred_path = tmp_path / "pred.jsonl"
        with open(pred_path, "w") as fh:
            for image_id, entry in ann["imgs"].items():
                for obj in entry["objects"]:
                    bb = obj["bbox"]
                    fh.write(json.dumps({
                        "image_id": image_id,
                        "category": obj["category"],
                        "bbox": [bb["xmin"], bb["ymin"], bb["xmax"], bb["ymax"]],
                        "confidence": 0.9,
                    }) + "\n")
        out = tmp_path / "eval"
        assert run(["eval", "--pred", str(pred_path),
                    "--gt", str(synth_dir / "annotations.json"),
                    "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert report["mAP50"] == 1.0
        assert report["mAP50:95"] == 1.0
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "Precision,Recall,mAP50,mAP50:95"


class TestStats:
    def test_stats_report(self, pipeline, tmp_path):
        _, synth_dir, data_dir, _ = pipeline
        out = tmp_path / "stats"
        assert run(["stats", "--pairs", str(data_dir / "pairs.jsonl"),
                    "--annotations", str(synth_dir / "annotations.json"),
                    "--out", str(out)]) == 0
        report = json.loads((out / "stats.json").read_text())
        assert set(report["per_category"]) == set(MINI_PROFILE)
        assert report["small_target"]["total"] == sum(MINI_PROFILE.values())


class TestBenchCacheCommand:
    def test_seeded_encoder_workload(self, tmp_path):
        out = tmp_path / "bench"
        assert run(["bench-cache", "--texts", "12", "--images", "3",
                    "--out", str(out), "--seed", "1"]) == 0
        report = json.loads((out / "bench.json").read_text())
        assert report["warm_hit_ratio"] == 1.0
        assert report["speedup"] > 1.0

    def test_sample_codes_deterministic_and_sized(self):
        a = sample_category_codes(221)
        b = sample_category_codes(221)
        assert a == b
        assert len(a) == 221
        assert len(set(a)) == 221


class TestReproducibility:
    def test_resolved_config_written_everywhere(self, pipeline):
        _, synth_dir, data_dir, model_dir = pipeline
        for d in (synth_dir, data_dir, model_dir):
            assert (d / "resolved-config.json").exists()

    def test_rerun_from_resolved_config_identical(self, pipeline, tmp_path):
        _, synth_dir, _, _ = pipeline
        cfg = json.loads((synth_dir / "resolved-config.json").read_text())
        out2 = tmp_path / "synth2"
        assert run(["synth", "--out", str(out2), "--seed", str(cfg["seed"]),
                    "--profile", cfg["profile"],
                    "--scene-side", str(cfg["scene_side"]),
                    "--noise", str(cfg["noise"])]) == 0
        a = (synth_dir / "annotations.json").read_text()
        b = (out2 / "annotations.json").read_text()
        assert a == b
        for ppm in sorted((synth_dir / "scenes").glob("*.ppm")):
            assert (out2 / "scenes" / ppm.name).read_bytes() == ppm.read_bytes()
