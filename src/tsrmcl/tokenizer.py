"""Regulation-aware text front end: normalization, number protection,
BPE sub-word tokenization, and the category-code knowledge base.

The BPE here keeps whitespace as its own atomic symbol and learns
merges strictly within words, so detokenization is a plain
concatenation of token surfaces. ``tokenize`` applies merges by rank
(Sennrich et al. 2016): it joins the lowest-ranked adjacent pair with
the same one-pair pass ``build_vocab`` learns it with, until no pair in
the word has a rank. Number protection is chosen once, by
``build_vocab``, and the vocab carries it to ``tokenize``: each numeric
literal is then one atomic token that merges never split, and literals
unseen at build time map to [NUM], the surface kept in protected spans.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .errors import ContractError

__all__ = [
    "Vocab",
    "TokenSequence",
    "KnowledgeBase",
    "normalize",
    "protect_numbers",
    "build_vocab",
    "tokenize",
    "detokenize",
]

RESERVED = ("[CLS]", "[SEP]", "[PAD]", "[UNK]", "[NUM]")

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
_SYMBOL_RE = re.compile(rf"{_NUMBER_RE.pattern}|.", re.S)
_DIGIT_LETTER_RE = re.compile(r"(\d)(?=[a-z])")
_LETTER_DIGIT_RE = re.compile(r"([a-z])(?=\d)")
_UNIT_CANON = [
    (re.compile(r"\bk(?:m[ /]?h|ph|mph)\b"), "km/h"),
    (re.compile(r"\btonnes?\b|\btons?\b"), "t"),
    (re.compile(r"\bmeters?\b|\bmetres?\b"), "m"),
]


# -- normalization and number protection ------------------------------------


def normalize(text: str) -> str:
    """Lowercase, detach glued number/unit pairs, canonicalize unit
    spellings, and collapse whitespace. Idempotent. A ``text`` that is
    not a str raises ContractError naming its type and value."""
    if not isinstance(text, str):
        raise ContractError(f"normalize needs a str, got {type(text).__name__}: {text!r}")
    t = text.lower()
    t = _DIGIT_LETTER_RE.sub(r"\1 ", t)
    t = _LETTER_DIGIT_RE.sub(r"\1 ", t)
    t = " ".join(t.split())
    for rx, canon in _UNIT_CANON:
        t = rx.sub(canon, t)
    return t


def protect_numbers(text: str) -> tuple[str, list[tuple[int, int, str]]]:
    """Mark every maximal decimal literal as an atomic span.

    Returns the text unchanged plus spans of (start, end, literal);
    downstream BPE never places a token boundary inside a span.
    """
    spans = [(m.start(), m.end(), m.group(0)) for m in _NUMBER_RE.finditer(text)]
    return text, spans


# -- knowledge base ----------------------------------------------------------


@dataclass(frozen=True)
class _Rule:
    pattern: str
    field: str
    value: str
    priority: int
    regex: re.Pattern = None

    def __post_init__(self):
        object.__setattr__(self, "regex", re.compile(self.pattern))


class KnowledgeBase:
    """Priority-ordered regex rules that expand a category code.

    Loaded from a JSON array of {pattern, field, value, priority}. The
    code.shape/color/action/numeric rules fill the description template,
    and a value may hold backreferences; the "meta" rule labels the file.
    """

    def __init__(self, rules):
        self.rules = sorted(rules, key=lambda r: (r.priority, r.pattern))
        self._by_field: dict[str, list[_Rule]] = {}
        for r in self.rules:
            self._by_field.setdefault(r.field, []).append(r)

    @classmethod
    def load(cls, path=None) -> "KnowledgeBase":
        """The bundled rules, or those of the file at ``path``. ContractError
        naming the path if the file is not JSON or not a list, and also
        ``[k].<field>`` if entry k lacks a string ``pattern`` (or it does not
        compile), ``field`` or ``value``, or an integer ``priority``."""
        if path is None:
            path = resources.files("tsrmcl").joinpath("data/knowledge_base.json")
        else:
            path = Path(path)
        with path.open(encoding="utf-8") as fh:
            try:
                entries = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                raise ContractError(f"{path}: {exc}") from exc
        if not isinstance(entries, list):
            raise ContractError(f"{path}: expected a JSON list of rules, got {type(entries).__name__}")
        rules = []
        for k, e in enumerate(entries):
            for name, kind, what in (("pattern", str, "a string"), ("field", str, "a string"),
                                     ("value", str, "a string"), ("priority", int, "an integer")):
                if not isinstance(e, dict) or type(e.get(name)) is not kind:
                    raise ContractError(f"{path}: [{k}].{name} is missing or not {what}")
            try:
                rules.append(_Rule(e["pattern"], e["field"], e["value"], e["priority"]))
            except re.error as exc:
                raise ContractError(f"{path}: [{k}].pattern does not compile: {exc}") from exc
        return cls(rules)

    def first_match(self, fieldname: str, text: str) -> str | None:
        for rule in self._by_field.get(fieldname, ()):
            m = rule.regex.search(text)
            if m:
                return m.expand(rule.value)
        return None


# -- vocabulary --------------------------------------------------------------


@dataclass(frozen=True)
class Vocab:
    """A value, and the one owner of the token facts: the BPE tokens (their
    count sizes the text encoder's token table; the reserved ids are the
    class constants below, and the encoder pads with ``pad_id``), the merges
    and the number-protection policy ``tokenize`` applies, as tuples with
    read-only derived lookups. Valid by construction, else ContractError
    naming ``tokens[i]`` or ``merges[k]``: the tokens are distinct strings,
    ``RESERVED`` first in order; each merge is a pair of strings; the last
    ``len(merges)`` tokens are the products ``a + b`` in merge order; each
    operand is a base token or the product of an earlier merge."""

    tokens: tuple[str, ...]
    merges: tuple[tuple[str, str], ...]
    number_protection: bool = True

    cls_id, sep_id, pad_id, unk_id, num_id = range(len(RESERVED))

    def __post_init__(self):
        tokens, merges = tuple(self.tokens), tuple(self.merges)
        for i, want in enumerate(RESERVED):
            if tokens[i:i + 1] != (want,):
                raise ContractError(f"tokens[{i}] is not the reserved token {want!r}")
        base = max(len(tokens) - len(merges), len(RESERVED))  # where the merge products start
        known: set[str] = set()
        for i, tok in enumerate(tokens[:base]):
            if not isinstance(tok, str) or tok in known:
                raise ContractError(f"tokens[{i}] {tok!r} is not a distinct string")
            known.add(tok)
        for k, m in enumerate(merges):
            if not (isinstance(m, (list, tuple)) and len(m) == 2 and all(isinstance(s, str) for s in m)):
                raise ContractError(f"merges[{k}] is not a list of two strings")
            a, b = m
            if tokens[base + k:base + k + 1] != (a + b,):
                raise ContractError(f"merges[{k}] product {a + b!r} is not tokens[{base + k}]")
            if a not in known or b not in known:
                raise ContractError(f"merges[{k}] operand is neither a base token nor an earlier product")
            if a + b in known:
                raise ContractError(f"merges[{k}] product {a + b!r} repeats an earlier token")
            known.add(a + b)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "merges", tuple(tuple(m) for m in merges))
        object.__setattr__(self, "token_to_id", MappingProxyType({t: i for i, t in enumerate(tokens)}))
        object.__setattr__(self, "ranks", MappingProxyType({p: r for r, p in enumerate(self.merges)}))

    def __len__(self) -> int:
        return len(self.tokens)

    def save(self, path) -> None:
        doc = {"tokens": self.tokens, "merges": self.merges, "number_protection": self.number_protection}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, ensure_ascii=False, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """Decode a saved vocab; a ``reserved`` key, written by older
        versions, is ignored. ContractError naming the path if the file is
        not UTF-8 JSON, is not an object, has no ``tokens`` or ``merges``
        list, or has no boolean ``number_protection``; a ContractError from
        building the ``Vocab`` (its invariants) gets the path as a prefix."""
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                raise ContractError(f"{path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ContractError(f"{path}: expected a JSON object, got {type(doc).__name__}")
        for key, kind in (("tokens", list), ("merges", list), ("number_protection", bool)):
            if not isinstance(doc.get(key), kind):
                raise ContractError(f"{path}: no {key} {kind.__name__}; rebuild the vocab")
        try:
            return cls(doc["tokens"], doc["merges"], doc["number_protection"])
        except ContractError as exc:
            raise ContractError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class TokenSequence:
    """[CLS] ... [SEP] token ids plus the protected numeric spans."""

    ids: tuple[int, ...]
    protected_spans: tuple[tuple[int, int, str], ...] = ()


def _words(norm: str, protect: bool) -> list[tuple[tuple[str, ...], tuple[bool, ...]]]:
    """Words of a normalized text as (symbols, protected flags). With
    ``protect``, each number literal is one protected symbol; every other
    character is its own symbol. A literal never holds a space, so each
    word is cut on its own."""
    words = []
    for word in norm.split():
        syms = tuple(_SYMBOL_RE.findall(word) if protect else word)
        words.append((syms, tuple(protect and _NUMBER_RE.match(sym) is not None for sym in syms)))
    return words


def _merge(syms, flags, pair) -> tuple[tuple[str, ...], tuple[bool, ...]]:
    """One left-to-right pass joining every unprotected adjacent ``pair``;
    a word that lacks either symbol comes back as it is, without a pass."""
    a, b = pair
    if a not in syms or b not in syms:
        return syms, flags
    out_s: list[str] = []
    out_f: list[bool] = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b and not (flags[i] or flags[i + 1]):
            out_s.append(a + b)
            out_f.append(False)
            i += 2
        else:
            out_s.append(syms[i])
            out_f.append(flags[i])
            i += 1
    return tuple(out_s), tuple(out_f)


def build_vocab(corpus, target_size: int = 2048, number_protection: bool = True) -> Vocab:
    """Learn a BPE vocabulary over whitespace-pretokenized, number-protected
    text.

    Deterministic given the corpus: pair counts drive merge order, ties
    break lexicographically, merges stop below pair frequency 2, and the
    base symbol inventory is sorted. ``target_size`` caps the total token
    count (reserved + base symbols + merges); when it leaves no budget,
    zero merges are learned.
    """
    corpus = list(corpus)
    if not corpus:
        raise ContractError("build_vocab requires a non-empty corpus")
    if target_size <= len(RESERVED):
        raise ContractError(
            f"target_size {target_size} must exceed the reserved count {len(RESERVED)}"
        )

    word_freq: Counter = Counter()
    saw_space = False
    for line in corpus:
        norm = normalize(line)
        if " " in norm:
            saw_space = True
        word_freq.update(_words(norm, number_protection))

    base: set[str] = {" "} if saw_space else set()
    for (syms, flags) in word_freq:
        base.update(syms)
    base_tokens = sorted(base)

    budget = target_size - len(RESERVED) - len(base_tokens)
    seqs = dict(word_freq)
    merges: list[tuple[str, str]] = []
    while budget > 0:
        pair_counts: Counter = Counter()
        for (syms, flags), f in seqs.items():
            for i in range(len(syms) - 1):
                if flags[i] or flags[i + 1]:
                    continue
                pair_counts[(syms[i], syms[i + 1])] += f
        if not pair_counts:
            break
        top = max(pair_counts.values())
        if top < 2:
            break
        best = min(p for p, c in pair_counts.items() if c == top)
        merges.append(best)
        budget -= 1
        new_seqs: dict = {}
        for seq, f in seqs.items():
            key = _merge(*seq, best)
            new_seqs[key] = new_seqs.get(key, 0) + f
        seqs = new_seqs

    return Vocab(RESERVED + tuple(base_tokens) + tuple(a + b for a, b in merges), merges,
                 number_protection)


def tokenize(text: str, vocab: Vocab) -> TokenSequence:
    """[CLS] + BPE tokens + [SEP]. If ``vocab.number_protection``, each
    numeric span comes out as its literal token when in vocab, else [NUM],
    and the literal survives in ``protected_spans``; if not, numbers split
    like any word and ``protected_spans`` is empty."""
    norm = normalize(text)
    spans = tuple(protect_numbers(norm)[1]) if vocab.number_protection else ()
    ids: list[int] = [vocab.cls_id]
    space_id = vocab.token_to_id.get(" ", vocab.unk_id)
    ranks = vocab.ranks
    # normalize() leaves single spaces only, so one space token joins each word pair
    for i, (syms, flags) in enumerate(_words(norm, vocab.number_protection)):
        if i:
            ids.append(space_id)
        while True:
            pairs = [
                (syms[j], syms[j + 1]) for j in range(len(syms) - 1) if not (flags[j] or flags[j + 1])
            ]
            best = min(pairs, key=lambda p: ranks.get(p, len(ranks)), default=None)
            if best not in ranks:
                break
            syms, flags = _merge(syms, flags, best)
        for sym, protected in zip(syms, flags):
            ids.append(vocab.token_to_id.get(sym, vocab.num_id if protected else vocab.unk_id))
    ids.append(vocab.sep_id)
    return TokenSequence(ids=tuple(ids), protected_spans=spans)


def detokenize(seq: TokenSequence, vocab: Vocab) -> str:
    """Reproduce the normalized text; [NUM] placeholders resolve from the
    protected spans in order."""
    unknown_literals = [
        lit for (_, _, lit) in seq.protected_spans if lit not in vocab.token_to_id
    ]
    parts: list[str] = []
    k = 0
    skip = {vocab.cls_id, vocab.sep_id, vocab.pad_id}
    for tid in seq.ids:
        if tid in skip:
            continue
        if tid == vocab.num_id:
            parts.append(unknown_literals[k])
            k += 1
        else:
            parts.append(vocab.tokens[tid])
    return "".join(parts)
