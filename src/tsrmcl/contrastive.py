"""Similarity matrix, temperature, bidirectional contrastive loss,
softmax classification, and the training loop that ties the dual
encoders together.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import zipfile
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np
from numpy.lib import format as npy_format

from . import cache as semantic_cache
from .errors import ContractError, DimensionError
from .encoders import (
    EncoderParams,
    TextEncoderConfig,
    ViTConfig,
    encode_images,
    encode_texts,
    init_projection_params,
    init_text_params,
    init_vit_params,
    padded_width,
    project_to_shared,
)
from .tensor import AdamState, Tensor, adam_step, logsumexp, matmul
from .tokenizer import Vocab, build_vocab, tokenize

__all__ = [
    "Temperature",
    "TrainConfig",
    "DualEncoderModel",
    "similarity",
    "contrastive_loss",
    "classify",
    "classify_image",
    "train",
    "write_loss_trace",
]

log = logging.getLogger(__name__)

UNIT_TOL = 1e-9
TAU_CEILING = 100.0


@dataclass(frozen=True)
class Temperature:
    """Learnable temperature tau = min(exp(gamma), TAU_CEILING), positive
    by construction; the module constant ``TAU_CEILING`` (100) guards long
    runs against saturation-driven overflow.
    """

    gamma: Tensor

    @classmethod
    def init(cls, gamma_init: float = math.log(14.0)) -> "Temperature":
        return cls(gamma=Tensor(gamma_init, requires_grad=True))

    def tau_tensor(self) -> Tensor:
        return self.gamma.exp().minimum(Tensor(TAU_CEILING))

    @property
    def tau(self) -> float:
        return min(math.exp(float(self.gamma.data)), TAU_CEILING)


def similarity(fv: Tensor, ft: Tensor) -> Tensor:
    """Cosine similarity matrix S[i, j] = fv_i . ft_j of unit embeddings."""
    fv = Tensor._coerce(fv)
    ft = Tensor._coerce(ft)
    if fv.ndim != 2 or ft.ndim != 2 or fv.shape[1] != ft.shape[1]:
        raise DimensionError(f"similarity expects B x d stacks, got {fv.shape} and {ft.shape}")
    for name, t in (("image", fv), ("text", ft)):
        norms = np.linalg.norm(t.data, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            raise ContractError(f"{name} embeddings must be unit norm within {UNIT_TOL}")
    return matmul(fv, ft.transpose())


def contrastive_loss(s: Tensor, temperature: Temperature) -> Tensor:
    """Bidirectional InfoNCE over a square similarity matrix.

    -(1/2B) * [ sum_i log softmax_row(tau S)_ii + sum_i log softmax_col(tau S)_ii ],
    computed with log-sum-exp stabilization; differentiable with respect
    to S and gamma.
    """
    s = Tensor._coerce(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"similarity matrix must be square, got {s.shape}")
    b = s.shape[0]
    if b < 1:
        raise ContractError("similarity matrix must be at least 1 x 1")
    z = temperature.tau_tensor() * s
    eye = Tensor(np.eye(b))
    diag = (z * eye).sum()
    row_lse = logsumexp(z, axis=1).sum()
    col_lse = logsumexp(z, axis=0).sum()
    return (-1.0 / (2.0 * b)) * (2.0 * diag - row_lse - col_lse)


def classify(f_v: np.ndarray, class_embeddings: np.ndarray, temperature: Temperature) -> np.ndarray:
    """Softmax over tau-scaled similarities against K class texts.

    Returns a length-K probability vector; the argmax is always the
    nearest class text by cosine similarity.
    """
    f_v = np.asarray(f_v, dtype=np.float64)
    cls = np.asarray(class_embeddings, dtype=np.float64)
    if cls.ndim != 2 or cls.shape[0] == 0:
        raise ContractError("classify needs at least one class embedding")
    if abs(np.linalg.norm(f_v) - 1.0) > UNIT_TOL or np.any(
        np.abs(np.linalg.norm(cls, axis=1) - 1.0) > UNIT_TOL
    ):
        raise ContractError("classify expects unit-norm embeddings")
    sims = cls @ f_v
    scores = temperature.tau * sims
    scores = scores - scores.max()
    e = np.exp(scores)
    return e / e.sum()


def _fitting_tokens(text: str, vocab: Vocab, max_len: int, what: str = "text"):
    """Tokens of ``text``; over ``max_len`` raises ContractError naming
    ``what`` and the text (over-long texts are rejected, not truncated)."""
    seq = tokenize(text, vocab)
    if len(seq.ids) > max_len:
        raise ContractError(f"{what} has {len(seq.ids)} tokens, over max_len {max_len}: {text!r}")
    return seq


# -- the bundled model ---------------------------------------------------------


@dataclass(frozen=True)
class DualEncoderModel:
    """A value: both encoders, their projections (read-only mappings), the
    temperature and the vocab. Nothing in it can be reassigned or edited in
    place, so its text fingerprint is computed once and kept; training
    moves to a new model with ``with_params``."""

    vit: EncoderParams
    text: EncoderParams
    proj_v: Mapping[str, Tensor]
    proj_t: Mapping[str, Tensor]
    temperature: Temperature
    vocab: Vocab

    def __post_init__(self):
        object.__setattr__(self, "proj_v", MappingProxyType(dict(self.proj_v)))
        object.__setattr__(self, "proj_t", MappingProxyType(dict(self.proj_t)))

    # flat parameter dict <-> structured views ---------------------------

    def flat_params(self) -> dict[str, Tensor]:
        flat: dict[str, Tensor] = {}
        flat.update(self.vit.named("vit"))
        flat.update(self.text.named("txt"))
        flat["pv.w"] = self.proj_v["w"]
        flat["pv.b"] = self.proj_v["b"]
        flat["pt.w"] = self.proj_t["w"]
        flat["pt.b"] = self.proj_t["b"]
        flat["gamma"] = self.temperature.gamma
        return flat

    def with_params(self, flat: dict[str, Tensor]) -> "DualEncoderModel":
        vit_t = {k[4:]: v for k, v in flat.items() if k.startswith("vit.")}
        txt_t = {k[4:]: v for k, v in flat.items() if k.startswith("txt.")}
        return DualEncoderModel(
            vit=EncoderParams(self.vit.config, vit_t),
            text=EncoderParams(self.text.config, txt_t),
            proj_v={"w": flat["pv.w"], "b": flat["pv.b"]},
            proj_t={"w": flat["pt.w"], "b": flat["pt.b"]},
            temperature=Temperature(flat["gamma"]),
            vocab=self.vocab,
        )

    # inference-side embedding ------------------------------------------

    def embed_images(self, images) -> np.ndarray:
        """(B, H, W, C) stack -> (B, d) unit rows, on the training path; a
        (0, H, W, C) stack gives (0, d).

        Batch invariant: each row depends on its own image alone, so
        ``embed_images(x)[i]`` is bit-identical to ``embed_images(x[i:i + 1])[0]``
        whatever else the stack holds.
        """
        f = encode_images(Tensor(images), self.vit)
        return project_to_shared(f, self.proj_v).to_numpy()

    def embed_texts(self, texts) -> np.ndarray:
        """K texts -> (K, d) unit rows, in input order.

        Each text is checked as ``embed_text`` checks it, before anything
        is encoded: one over the encoder's ``max_len`` tokens raises
        ContractError naming it, and so does an empty list. Rows are
        grouped by ``padded_width`` of their own length and each group is
        encoded as one stack, so ``embed_texts(xs)[i]`` is bit-identical to
        ``embed_texts([xs[i]])[0]`` whatever else ``xs`` holds.
        """
        max_len = self.text.config.max_len
        seqs = [_fitting_tokens(t, self.vocab, max_len) for t in texts]
        if not seqs:
            raise ContractError("embed_texts needs at least one text")
        groups: dict[int, list[int]] = {}
        for i, seq in enumerate(seqs):
            groups.setdefault(padded_width(len(seq.ids), max_len), []).append(i)
        out = np.empty((len(seqs), self.proj_t["w"].shape[1]))
        for rows in groups.values():
            f = encode_texts([seqs[i] for i in rows], self.text)
            out[rows] = project_to_shared(f, self.proj_t).to_numpy()
        return out

    def embed_text(self, text: str) -> np.ndarray:
        """Unit text embedding: the one-row case of ``embed_texts``."""
        return self.embed_texts([text])[0]

    def text_fingerprint(self) -> int:
        """64-bit digest over everything the text embedding reads: the text
        config, every text-encoder tensor, the text projection and the
        vocab (tokens, merges and policy). Computed on first use and kept."""
        return self._text_digest

    @cached_property
    def _text_digest(self) -> int:
        h = hashlib.blake2b(digest_size=8)
        h.update(repr((self.text.config, self.vocab)).encode())
        for name in sorted(self.text.tensors):
            h.update(name.encode())
            h.update(self.text.tensors[name].data.tobytes())
        for name in ("w", "b"):
            h.update(self.proj_t[name].data.tobytes())
        return int.from_bytes(h.digest(), "little")

    # checkpointing -------------------------------------------------------

    def save(self, directory) -> None:
        """Write three files into ``directory``: ``manifest.json`` (the
        ``vit_config`` and ``text_config`` the parameter shapes follow
        from), ``params.npz`` (every ``flat_params`` entry by name, float64,
        uncompressed) and ``vocab.json``."""
        os.makedirs(directory, exist_ok=True)
        np.savez(os.path.join(directory, "params.npz"),
                 **{name: t.data for name, t in sorted(self.flat_params().items())})
        manifest = {"vit_config": self.vit.config.__dict__, "text_config": self.text.config.__dict__}
        with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        self.vocab.save(os.path.join(directory, "vocab.json"))

    @classmethod
    def load(cls, directory) -> "DualEncoderModel":
        """Read a checkpoint written by ``save``.

        Raises ContractError naming the file and, where one is at fault,
        the config key or ``params.npz`` entry, when:
        - the manifest lacks ``vit_config`` or ``text_config``, or a config
          has a key its class lacks (as an older manifest's ``vocab_size``
          and ``pad_id``, which are the vocab's), or lacks a required one;
        - ``vocab.json`` fails ``Vocab.load``;
        - ``params.npz`` is absent, not a zip archive, or truncated;
        - an entry is missing, or is not a parameter of the model the
          configs and the vocab build;
        - an entry's header declares a dtype other than float64 or another
          shape (checked before its payload is read);
        - an entry fails its zip CRC-32, is cut short, or holds a NaN or inf.
        An absent or unparsable ``manifest.json`` raises OSError or ValueError.
        """
        with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        vit_cfg = _config_from(manifest, "vit_config", ViTConfig, directory)
        txt_cfg = _config_from(manifest, "text_config", TextEncoderConfig, directory)
        vocab = Vocab.load(os.path.join(directory, "vocab.json"))
        shell = _init_from_configs(vit_cfg, txt_cfg, vocab, seed=0, gamma_init=0.0)  # shapes only
        shapes = {name: t.shape for name, t in shell.flat_params().items()}
        return shell.with_params(_read_params(os.path.join(directory, "params.npz"), shapes))


def _config_from(manifest: dict, key: str, config_cls, directory):
    try:
        return config_cls(**manifest[key])
    except KeyError as exc:
        raise ContractError(f"{directory}: manifest has no {key}") from exc
    except TypeError as exc:  # unknown or missing keyword, or not an object
        raise ContractError(f"{directory}: manifest {key}: {exc}") from exc


_DECODE_ERRORS = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error)


def _read_params(path, shapes: dict) -> dict[str, Tensor]:
    """The entries of ``params.npz``, each checked against ``shapes`` and
    read by numpy's ``.npy`` reader with ``allow_pickle=False``. Each header
    is checked before its payload is read, so a header that declares a
    huge shape is refused without allocating it."""
    try:
        archive = zipfile.ZipFile(path)
    except _DECODE_ERRORS as exc:
        raise ContractError(f"{path}: not a readable .npz archive: {exc}") from exc
    flat: dict[str, Tensor] = {}
    with archive:
        odd = sorted(shapes.keys() ^ {member.removesuffix(".npy") for member in archive.namelist()})
        if odd:
            problem = "is missing" if odd[0] in shapes else "is not a parameter of the manifest's configs"
            raise ContractError(f"{path}: entry {odd[0]!r} {problem}")
        for name, shape in shapes.items():
            where = f"{path}: entry {name!r}"
            try:
                with archive.open(f"{name}.npy") as fh:
                    major, _ = npy_format.read_magic(fh)
                    read_header = (npy_format.read_array_header_1_0 if major == 1
                                   else npy_format.read_array_header_2_0)
                    declared, _, dtype = read_header(fh)
                if dtype != np.float64 or declared != shape:
                    raise ContractError(f"{where} declares {dtype} {list(declared)}, the "
                                        f"manifest's configs and vocab.json need float64 {list(shape)}")
                with archive.open(f"{name}.npy") as fh:
                    data = npy_format.read_array(fh, allow_pickle=False)
            except ContractError:
                raise
            except _DECODE_ERRORS as exc:
                raise ContractError(f"{where} does not decode: {exc}") from exc
            if not np.all(np.isfinite(data)):
                raise ContractError(f"{where} holds non-finite values")
            flat[name] = Tensor(data, requires_grad=True)
    return flat


def classify_image(model: DualEncoderModel, image, class_texts, cache=None) -> np.ndarray:
    """Probability vector of an image against the class text list.

    ``class_texts`` is any non-empty sequence of str, taken as a tuple.
    The class rows are built before the image is embedded: without a
    ``cache`` by one ``model.embed_texts`` call, with one by
    ``cache.class_bank``. That checks the model's text fingerprint first,
    so a stale cache raises ``StaleCacheError`` before anything is looked
    up or encoded. It then reuses the cache's class bank, a read-only
    K x d matrix, if the tuple equals the bank's (K hits); otherwise one
    ``get_or_encode_many`` call, which encodes all of the request's misses
    in one ``embed_texts`` call, builds the rows and replaces the bank.
    Both paths are batch invariant, so the result is bit-identical with
    the cache on or off.
    """
    class_texts = tuple(class_texts)
    if not class_texts:
        raise ContractError("classify_image needs at least one class text")
    if cache is None:
        cls = model.embed_texts(class_texts)
    else:
        cls = semantic_cache.class_bank(class_texts, model, cache)
    f_v = model.embed_images(np.asarray(image)[None])[0]
    return classify(f_v, cls, model.temperature)


# -- training -------------------------------------------------------------------


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 200
    lr: float = 3e-4
    seed: int = 0
    gamma_init: float = math.log(14.0)
    number_protection: bool = True
    vocab_target: int = 2048
    image_side: int = 32
    channels: int = 3
    patch: int = 8
    width: int = 32
    vit_layers: int = 2
    text_layers: int = 2
    heads: int = 2
    mlp_factor: int = 4
    max_len: int = 64

    def __post_init__(self):
        if self.batch_size < 1:
            raise ContractError("batch size must be >= 1")


def _init_from_configs(vit_cfg: ViTConfig, txt_cfg: TextEncoderConfig, vocab: Vocab,
                       seed: int, gamma_init: float) -> DualEncoderModel:
    return DualEncoderModel(
        vit=init_vit_params(vit_cfg, seed),
        text=init_text_params(txt_cfg, len(vocab), seed + 1),
        proj_v=init_projection_params(vit_cfg.width, vit_cfg.width, seed + 2),
        proj_t=init_projection_params(txt_cfg.width, txt_cfg.width, seed + 3),
        temperature=Temperature.init(gamma_init),
        vocab=vocab,
    )


def init_model(config: TrainConfig, vocab: Vocab) -> DualEncoderModel:
    vit_cfg = ViTConfig(
        image_side=config.image_side,
        channels=config.channels,
        patch=config.patch,
        width=config.width,
        layers=config.vit_layers,
        heads=config.heads,
        mlp_factor=config.mlp_factor,
    )
    txt_cfg = TextEncoderConfig(
        max_len=config.max_len,
        width=config.width,
        layers=config.text_layers,
        heads=config.heads,
    )
    return _init_from_configs(vit_cfg, txt_cfg, vocab, config.seed, config.gamma_init)


def _batch_loss(model: DualEncoderModel, images: np.ndarray, sequences, text_of: np.ndarray) -> Tensor:
    """InfoNCE of one batch whose row i pairs ``images[i]`` with
    ``sequences[text_of[i]]``. Each distinct text is encoded once; the
    integer gather back to the rows scatter-adds their gradients."""
    fv = project_to_shared(encode_images(Tensor(images), model.vit), model.proj_v)
    distinct, rows = np.unique(text_of, return_inverse=True)
    ft = project_to_shared(encode_texts([sequences[k] for k in distinct], model.text), model.proj_t)
    return contrastive_loss(similarity(fv, ft[rows]), model.temperature)


def train(pairs, config: TrainConfig):
    """Contrastive training over (image, text) pairs.

    Shuffled seeded mini-batches; both encoders, the projections, and
    gamma update through Adam each step. The final partial batch is
    kept (loss already normalizes by the actual batch size). Each distinct
    text is tokenized and checked once, before the first step: one longer
    than ``config.max_len`` tokens raises ContractError naming the first
    pair that holds it, and the text. Rows of a batch that share a text
    share one encoding per step (see ``_batch_loss``). A batch pads its
    texts to ``padded_width`` of its longest one (the multiple of 8 above
    it), and the encoders are batch invariant, so the forward values equal
    encoding every row, bit for bit; the gradients sum the shared rows in
    another order and match to about 1e-10 relative. Returns (model, trace)
    where trace rows are (epoch, mean_loss, tau).
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ContractError("training needs at least 2 pairs for meaningful negatives")

    texts = [t for _, t in pairs]
    vocab = build_vocab(texts, target_size=config.vocab_target,
                        number_protection=config.number_protection)
    model = init_model(config, vocab)
    index_of: dict[str, int] = {}
    sequences = []
    for i, t in enumerate(texts):
        if t not in index_of:
            index_of[t] = len(sequences)
            sequences.append(_fitting_tokens(t, vocab, config.max_len, f"pair {i} text"))
    text_of = np.array([index_of[t] for t in texts])
    images = np.stack([np.asarray(img, dtype=np.float64) for img, _ in pairs])

    params = model.flat_params()
    state = AdamState.for_params(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)
    trace: list[tuple[int, float, float]] = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(pairs))
        total = 0.0
        for start in range(0, len(pairs), config.batch_size):
            batch = order[start:start + config.batch_size]
            if len(batch) == 1:
                log.warning("batch of size 1 at epoch %d: contrastive loss is trivially 0", epoch)
            loss = _batch_loss(model, images[batch], sequences, text_of[batch])
            loss.backward()
            params, state = adam_step(params, {name: p.grad for name, p in params.items()}, state)
            model = model.with_params(params)
            total += float(loss.data) * len(batch)
        mean_loss = total / len(pairs)
        trace.append((epoch, mean_loss, model.temperature.tau))
    return model, trace


def write_loss_trace(path, trace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "tau"])
        for epoch, mean_loss, tau in trace:
            writer.writerow([epoch, f"{mean_loss:.10f}", f"{tau:.10f}"])
