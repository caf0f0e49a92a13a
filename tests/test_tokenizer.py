"""Rule-enhanced text front end: normalization, number protection,
BPE merge learning, tokenization round trips, the knowledge-base file."""

import json
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsrmcl.cli import run
from tsrmcl.errors import ContractError
from tsrmcl.tokenizer import (
    RESERVED,
    KnowledgeBase,
    Vocab,
    _merge,
    _words,
    build_vocab,
    detokenize,
    normalize,
    protect_numbers,
    tokenize,
)

from conftest import PROPERTY


@pytest.fixture(scope="module")
def kb():
    return KnowledgeBase.load()


def fuzz_descriptions(n, seed=0):
    """Deterministic grammar over sign-description phrases with numerals."""
    rng = np.random.default_rng(seed)
    shapes = ["circular", "triangular", "rectangular", "octagonal"]
    colors = ["red", "blue", "yellow", "white"]
    actions = [
        "indicating no parking", "indicating stop and yield",
        "warning of children ahead", "with a white arrow indicating keep right",
        "indicating no honking", "warning of merging traffic ahead", "",
    ]
    units = ["km/h", "m", "t"]
    kinds = ["speed", "height", "weight", "width"]
    out = []
    for _ in range(n):
        shape = shapes[rng.integers(len(shapes))]
        color = colors[rng.integers(len(colors))]
        action = actions[rng.integers(len(actions))]
        parts = [f"a {shape} {color} sign"]
        if action:
            parts.append(action)
        if rng.random() < 0.8:
            if rng.random() < 0.5:
                value = str(int(rng.integers(1, 300)))
            else:
                value = f"{rng.integers(1, 90) / 10:.1f}"
            kind = kinds[rng.integers(len(kinds))]
            unit = units[rng.integers(len(units))]
            parts.append(f"with {kind} limit {value} {unit}")
        out.append(" ".join(parts))
    return out


def assert_spans_never_split(text, vocab):
    """Walk token surfaces through the normalized text and require every
    protected span to be covered by exactly one token."""
    seq = tokenize(text, vocab)
    norm = normalize(text)
    resolved = iter(
        lit for (_, _, lit) in seq.protected_spans if lit not in vocab.token_to_id
    )
    offsets = []  # (start, end) per emitted surface token
    pos = 0
    for tid in seq.ids:
        if tid in (vocab.cls_id, vocab.sep_id, vocab.pad_id):
            continue
        surface = next(resolved) if tid == vocab.num_id else vocab.tokens[tid]
        offsets.append((pos, pos + len(surface)))
        pos += len(surface)
    assert pos == len(norm), "token surfaces must tile the normalized text"
    for (s, e, lit) in seq.protected_spans:
        assert norm[s:e] == lit
        covering = [(a, b) for (a, b) in offsets if a < e and s < b]
        assert covering == [(s, e)], (
            f"span {lit!r} at {(s, e)} split across tokens {covering} in {text!r}"
        )


def walk_ids(text, vocab):
    """Reference tokenizer: every word walks the whole merge list in order,
    each merge one left-to-right pass that skips protected symbols."""
    ids = [vocab.cls_id]
    for w, (syms, flags) in enumerate(_words(normalize(text), vocab.number_protection)):
        if w:
            ids.append(vocab.token_to_id.get(" ", vocab.unk_id))
        for a, b in vocab.merges:
            i, out_s, out_f = 0, [], []
            while i < len(syms):
                if (i + 1 < len(syms) and (syms[i], syms[i + 1]) == (a, b)
                        and not flags[i] and not flags[i + 1]):
                    out_s.append(a + b)
                    out_f.append(False)
                    i += 2
                else:
                    out_s.append(syms[i])
                    out_f.append(flags[i])
                    i += 1
            syms, flags = out_s, out_f
        for sym, protected in zip(syms, flags):
            ids.append(vocab.token_to_id.get(sym, vocab.num_id if protected else vocab.unk_id))
    return ids + [vocab.sep_id]


class TestNormalize:
    def test_unit_table(self):
        assert normalize("Speed  Limit 40KPH") == "speed limit 40 km/h"
        assert normalize("height limit 2.2 meters") == "height limit 2.2 m"
        assert normalize("weight limit 10 tons") == "weight limit 10 t"
        assert normalize("60 kmh") == "60 km/h"

    def test_idempotent(self):
        samples = [
            "speed limit 40 km/h",
            "a circular blue sign with a white arrow indicating straight ahead",
            "",
        ]
        for s in samples:
            assert normalize(normalize(s)) == normalize(s)

    def test_empty(self):
        assert normalize("") == ""

    def test_collapses_whitespace_and_lowercases(self):
        assert normalize("  A   Big\t SIGN \n") == "a big sign"


class TestProtectNumbers:
    def test_integer_span(self):
        text, spans = protect_numbers("speed limit 40 km/h")
        assert text == "speed limit 40 km/h"
        assert spans == [(12, 14, "40")]

    def test_no_digits_no_spans(self):
        assert protect_numbers("a plain red sign")[1] == []

    def test_decimal_is_one_span(self):
        _, spans = protect_numbers("height limit 2.2 m")
        assert spans == [(13, 16, "2.2")]

    def test_multiple_maximal_literals(self):
        _, spans = protect_numbers("from 10 to 120.5")
        assert [s[2] for s in spans] == ["10", "120.5"]


class TestBuildVocab:
    def test_single_merge_hand_trace(self):
        v = build_vocab(["aa aa"], target_size=100)
        assert v.merges == (("a", "a"),)
        assert "aa" in v.token_to_id

    def test_no_budget_zero_merges(self):
        base = build_vocab(["aa aa"], target_size=100)
        n_base = len(base) - len(base.merges)
        v = build_vocab(["aa aa"], target_size=n_base)
        assert v.merges == ()

    def test_duplicated_corpus_same_merges(self):
        corpus = fuzz_descriptions(30, seed=3)
        a = build_vocab(corpus, target_size=512)
        b = build_vocab(corpus * 4, target_size=512)
        assert a.merges == b.merges
        assert a.tokens == b.tokens

    def test_determinism_byte_identical_files(self, tmp_path):
        corpus = fuzz_descriptions(50, seed=4)
        paths = []
        for i in range(2):
            v = build_vocab(list(corpus), target_size=512)
            p = tmp_path / f"v{i}.json"
            v.save(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            build_vocab([], target_size=100)

    def test_reserved_ids_dense_from_zero(self):
        v = build_vocab(["a sign"], target_size=64)
        assert [v.token_to_id[t] for t in ("[CLS]", "[SEP]", "[PAD]", "[UNK]", "[NUM]")] == [0, 1, 2, 3, 4]
        assert sorted(v.token_to_id.values()) == list(range(len(v)))

    def test_numerals_are_atomic_base_tokens(self):
        v = build_vocab(["speed limit 40 km/h", "speed limit 120 km/h"], target_size=512)
        assert "40" in v.token_to_id
        assert "120" in v.token_to_id


class TestTokenize:
    @pytest.fixture(scope="class")
    def vocab(self):
        return build_vocab(fuzz_descriptions(120, seed=5), target_size=512)

    def test_empty_text(self, vocab):
        seq = tokenize("", vocab)
        assert list(seq.ids) == [vocab.cls_id, vocab.sep_id]

    def test_brackets_cls_sep(self, vocab):
        seq = tokenize("a red sign", vocab)
        assert seq.ids[0] == vocab.cls_id
        assert seq.ids[-1] == vocab.sep_id

    def test_protected_number_single_token(self, vocab):
        v = build_vocab(["speed limit 40 km/h"] + fuzz_descriptions(60, seed=5),
                        target_size=512)
        seq = tokenize("speed limit 40 km/h", v)
        surfaces = [v.tokens[i] for i in seq.ids]
        assert surfaces.count("40") == 1
        assert "4" not in surfaces and "0" not in surfaces

    def test_unseen_numeral_maps_to_num_and_round_trips(self, vocab):
        text = "speed limit 987.25 km/h"
        seq = tokenize(text, vocab)
        assert vocab.num_id in seq.ids
        assert detokenize(seq, vocab) == normalize(text)

    def test_round_trip_200_generated(self, vocab):
        for text in fuzz_descriptions(200, seed=6):
            seq = tokenize(text, vocab)
            assert detokenize(seq, vocab) == normalize(text)

    def test_no_boundary_inside_protected_spans(self, vocab):
        for text in fuzz_descriptions(500, seed=7):
            assert_spans_never_split(text, vocab)

    def test_deterministic(self, vocab):
        text = "a circular red sign with speed limit 40 km/h"
        assert tokenize(text, vocab) == tokenize(text, vocab)

    def test_plain_mode_splits_numbers(self, vocab):
        plain_vocab = build_vocab(
            fuzz_descriptions(120, seed=5), target_size=512, number_protection=False
        )
        seq = tokenize("speed limit 987.25 km/h", plain_vocab)
        assert plain_vocab.num_id not in seq.ids
        assert seq.protected_spans == ()


@lru_cache(maxsize=None)
def policy_vocab(number_protection):
    return build_vocab(fuzz_descriptions(120, seed=5), target_size=512,
                       number_protection=number_protection)


@st.composite
def vocab_texts(draw, vocab):
    """Texts over the vocab's one-character symbols (either case), with
    number literals and runs of whitespace between the words."""
    symbols = sorted({t for t in vocab.tokens if len(t) == 1 and not t.isspace()})
    chars = st.sampled_from(symbols + [c.upper() for c in symbols if c.isalpha()])
    word = st.one_of(st.text(chars, min_size=1, max_size=8),
                     st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,2})?", fullmatch=True))
    words = draw(st.lists(word, max_size=10))
    gaps = draw(st.lists(st.sampled_from([" ", "  ", "\t", " \n "]),
                         min_size=len(words), max_size=len(words)))
    return "".join(g + w for g, w in zip(gaps, words))


@PROPERTY
@given(text=st.text(max_size=80))
def test_normalize_idempotent_property(text):
    assert normalize(normalize(text)) == normalize(text)


@pytest.mark.parametrize("number_protection", [True, False], ids=["protected", "plain"])
class TestProperties:
    @PROPERTY
    @given(data=st.data())
    def test_detokenize_inverts_tokenize(self, number_protection, data):
        vocab = policy_vocab(number_protection)
        text = data.draw(vocab_texts(vocab))
        assert detokenize(tokenize(text, vocab), vocab) == normalize(text)

    @PROPERTY
    @given(data=st.data())
    def test_numbers_are_one_token_under_protection(self, number_protection, data):
        vocab = policy_vocab(number_protection)
        text = data.draw(vocab_texts(vocab))
        spans = tokenize(text, vocab).protected_spans
        if not number_protection:
            assert spans == ()
            return
        assert list(spans) == protect_numbers(normalize(text))[1]
        assert_spans_never_split(text, vocab)


@st.composite
def tiny_corpus(draw):
    """Texts over a tiny alphabet, where merge products collide often."""
    alphabet = draw(st.sampled_from(["ab ", "aab ", "ab1. "]))
    text = st.text(st.sampled_from(alphabet), max_size=24)
    return draw(st.lists(text, min_size=1, max_size=8)), draw(st.lists(text, max_size=6))


@pytest.mark.parametrize("number_protection", [True, False], ids=["protected", "plain"])
class TestMergeRanks:
    @PROPERTY
    @given(corpus_texts=tiny_corpus(), target=st.integers(6, 40))
    def test_rank_order_matches_merge_list_walk(self, number_protection, corpus_texts, target):
        corpus, texts = corpus_texts
        vocab = build_vocab(corpus, target_size=target, number_protection=number_protection)
        for text in corpus + texts:
            assert list(tokenize(text, vocab).ids) == walk_ids(text, vocab)

    @PROPERTY
    @given(corpus_texts=tiny_corpus(), target=st.integers(6, 40))
    def test_built_vocab_passes_load_check(self, number_protection, corpus_texts,
                                           target, tmp_path_factory):
        vocab = build_vocab(corpus_texts[0], target_size=target,
                            number_protection=number_protection)
        p = tmp_path_factory.mktemp("vocab") / "vocab.json"
        vocab.save(p)
        assert Vocab.load(p) == vocab


def merge_every_word(syms, flags, pair):
    """The one-pair pass, run whether or not the word holds the pair."""
    out_s, out_f, i = [], [], 0
    while i < len(syms):
        if syms[i:i + 2] == pair and not any(flags[i:i + 2]):
            out_s.append(pair[0] + pair[1])
            out_f.append(False)
            i += 2
        else:
            out_s.append(syms[i])
            out_f.append(flags[i])
            i += 1
    return tuple(out_s), tuple(out_f)


class TestMergeKernel:
    @pytest.mark.parametrize("pair", [("x", "b"), ("a", "x"), ("x", "y")])
    def test_word_without_the_pair_symbols_comes_back_as_it_is(self, pair):
        syms, flags = ("a", "b", "a"), (False, False, False)
        out = _merge(syms, flags, pair)
        assert out[0] is syms and out[1] is flags

    @PROPERTY
    @given(word=st.lists(st.sampled_from("ab1"), max_size=10),
           pair=st.tuples(st.sampled_from("abx1"), st.sampled_from("abx1")))
    def test_matches_the_pass_over_every_word(self, word, pair):
        flags = tuple(sym == "1" for sym in word)
        assert _merge(tuple(word), flags, pair) == merge_every_word(tuple(word), flags, pair)

    def test_learned_vocab_unchanged(self, kb, monkeypatch):
        """The churn-sized class-text pool (1000 codes) and the longtail8
        profile learn the same vocab with either kernel."""
        from tsrmcl.cli import sample_category_codes
        from tsrmcl.dataset import LONGTAIL8, generate_description

        pool = sorted({generate_description(c, kb) for c in sample_category_codes(1000)})
        longtail = [generate_description(c, kb) for c, n in LONGTAIL8.items() for _ in range(n)]
        for corpus in (pool, longtail):
            vocab = build_vocab(corpus)
            with monkeypatch.context() as m:
                m.setattr("tsrmcl.tokenizer._merge", merge_every_word)
                assert build_vocab(corpus) == vocab


class TestVocabFile:
    def test_schema_fields(self, tmp_path):
        v = build_vocab(["speed limit 40 km/h"], target_size=128)
        p = tmp_path / "vocab.json"
        v.save(p)
        doc = json.loads(p.read_text())
        assert set(doc) == {"tokens", "merges", "number_protection"}
        loaded = Vocab.load(p)
        assert loaded.tokens == v.tokens
        assert loaded.merges == v.merges
        assert loaded.number_protection is True

    def test_policy_round_trips_and_is_required(self, tmp_path):
        p = tmp_path / "vocab.json"
        build_vocab(["speed limit 40 km/h"], target_size=128, number_protection=False).save(p)
        assert Vocab.load(p).number_protection is False
        doc = json.loads(p.read_text())
        del doc["number_protection"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ContractError, match=str(p)):
            Vocab.load(p)

    @pytest.mark.parametrize("extra, merges, bad", [
        (["a", "b", "aba", "ab"], [["ab", "a"], ["a", "b"]], 0),
        (["a", "b", "ac"], [["a", "c"]], 0),
        (["a", "b", "ab", "ab"], [["a", "b"]], 0),
        (["a", "b", "c", "ab", "bc", "abc", "abc"],
         [["a", "b"], ["b", "c"], ["ab", "c"], ["a", "bc"]], 3),
    ], ids=["operand-before-its-merge", "operand-unknown",
            "product-repeats-base", "product-repeats-product"])
    def test_merges_rank_order_cannot_reproduce_rejected(self, tmp_path, extra, merges, bad):
        p = tmp_path / "vocab.json"
        p.write_text(json.dumps({
            "tokens": list(RESERVED) + extra, "merges": merges,
            "reserved": {t: i for i, t in enumerate(RESERVED)}, "number_protection": True,
        }))
        with pytest.raises(ContractError, match=rf"{re.escape(str(p))}: merges\[{bad}\]"):
            Vocab.load(p)

    @pytest.mark.parametrize("text, detail", [
        (json.dumps(list(RESERVED)), "expected a JSON object"),
        ('{"tokens": [', "Expecting value"),
        (json.dumps({"merges": [], "number_protection": True}), "no tokens list"),
        (json.dumps({"tokens": list(RESERVED), "number_protection": True}), "no merges list"),
        (json.dumps({"tokens": list(RESERVED) + ["a", 5], "merges": [], "number_protection": True}),
         r"tokens\[6\] 5 is not a distinct string"),
        (json.dumps({"tokens": list(RESERVED) + ["a", "a"], "merges": [], "number_protection": True}),
         r"tokens\[6\] 'a' is not a distinct string"),
        (json.dumps({"tokens": list(RESERVED) + ["a", "b", "x"], "merges": [["a", "b"]],
                     "number_protection": True}), r"merges\[0\] product 'ab' is not tokens\[7\]"),
    ], ids=["json-list", "bad-json", "no-tokens", "no-merges", "integer-token",
            "repeated-base-token", "product-not-at-end"])
    def test_malformed_file_rejected_naming_it(self, tmp_path, capsys, text, detail):
        """Load and ``tsrmcl tokenize`` both refuse the file with a located error."""
        p = tmp_path / "vocab.json"
        p.write_text(text)
        with pytest.raises(ContractError, match=rf"{re.escape(str(p))}: .*{detail}"):
            Vocab.load(p)
        assert run(["tokenize", "--vocab", str(p), "--text", "a b"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {p}: ")

    def test_missing_reserved_rejected(self):
        with pytest.raises(ContractError):
            Vocab(tokens=["[CLS]"], merges=[])

    @pytest.mark.parametrize("merges", [[["a", "b", "c"]], [["a"]], [None], ["ab"], [["a", 1]]],
                             ids=["three-strings", "one-string", "null", "bare-string", "not-a-string"])
    def test_malformed_merge_entry_rejected(self, tmp_path, merges):
        p = tmp_path / "vocab.json"
        p.write_text(json.dumps({"tokens": list(RESERVED) + ["a", "b", "ab"], "merges": merges,
                                 "number_protection": True}))
        with pytest.raises(ContractError, match=rf"{re.escape(str(p))}: merges\[0\]"):
            Vocab.load(p)

    @pytest.mark.parametrize("tokens", [["[SEP]", "[CLS]", "[PAD]", "[UNK]", "[NUM]", "a"],
                                        ["[CLS]", "[SEP]", "[PAD]", "[UNK]"]],
                             ids=["out-of-order", "one-missing"])
    def test_reserved_tokens_out_of_place_rejected(self, tmp_path, tokens):
        p = tmp_path / "vocab.json"
        p.write_text(json.dumps({"tokens": tokens, "merges": [], "number_protection": True}))
        with pytest.raises(ContractError, match=re.escape(str(p))):
            Vocab.load(p)

    def test_reserved_ids_follow_token_order_not_a_stored_map(self, tmp_path):
        """An older file's ``reserved`` key is ignored: ids come from order."""
        p = tmp_path / "vocab.json"
        build_vocab(["a red sign"], target_size=64).save(p)
        doc = json.loads(p.read_text())
        doc["reserved"] = {**{t: i for i, t in enumerate(RESERVED)}, "[CLS]": 1000000}
        p.write_text(json.dumps(doc))
        v = Vocab.load(p)
        assert [v.cls_id, v.sep_id, v.pad_id, v.unk_id, v.num_id] == [0, 1, 2, 3, 4]
        assert tokenize("a red sign", v).ids[0] == 0


class TestKnowledgeBaseFile:
    def test_schema_is_rule_array(self):
        from importlib import resources

        raw = resources.files("tsrmcl").joinpath("data/knowledge_base.json").read_text()
        rules = json.loads(raw)
        assert isinstance(rules, list)
        for rule in rules:
            assert set(rule) == {"pattern", "field", "value", "priority"}

    @pytest.mark.parametrize("text, detail", [
        ('[{"pattern": "x",', "Expecting property name"),
        (json.dumps({"pattern": "x"}), "expected a JSON list of rules, got dict"),
        (json.dumps([{"field": "f", "value": "v", "priority": 1}]), r"\[0\]\.pattern is missing"),
        (json.dumps([{"pattern": "x"}]), r"\[0\]\.field is missing"),
        (json.dumps([{"pattern": "x", "field": "f", "value": "v", "priority": 1},
                     {"pattern": "x", "field": "f", "priority": 1}]), r"\[1\]\.value is missing"),
        (json.dumps([{"pattern": "x", "field": "f", "value": "v"}]), r"\[0\]\.priority is missing"),
        (json.dumps([{"pattern": "x", "field": "f", "value": "v", "priority": "1"}]),
         r"\[0\]\.priority is missing or not an integer"),
        (json.dumps([{"pattern": "(", "field": "f", "value": "v", "priority": 1}]),
         r"\[0\]\.pattern does not compile"),
    ], ids=["bad-json", "not-a-list", "no-pattern", "no-field", "no-value", "no-priority",
            "string-priority", "bad-regex"])
    def test_malformed_file_rejected_naming_it(self, tmp_path, capsys, text, detail):
        """Load and ``tsrmcl build-dataset --kb`` both refuse the file with a located error."""
        p = tmp_path / "kb.json"
        p.write_text(text)
        with pytest.raises(ContractError, match=rf"{re.escape(str(p))}: .*{detail}"):
            KnowledgeBase.load(p)
        assert run(["build-dataset", "--kb", str(p), "--annotations", str(tmp_path / "gt.json"),
                    "--images", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {p}: ")

    def test_reconstruction_is_labeled(self, kb):
        note = kb.first_match("meta", "")
        assert note and "not the official" in note
