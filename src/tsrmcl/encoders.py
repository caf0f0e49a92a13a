"""Toy-scale dual encoders: a ViT image encoder and a transformer text
encoder, both post-norm exactly as the block equations print them, both
pooled at the [CLS] position and projected into the shared space.

The image blocks run attention then MLP, each as
LayerNorm(sublayer(Z) + Z); the text blocks are attention-only
residual+norm. Positional encodings are a fixed sinusoidal table, so
(config, seed, input) fully determines every output. The vocab, not the
text config, owns the token table's size and the pad id (``Vocab.pad_id``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import Tensor, concat, l2_normalize, layer_norm, linear, matmul, softmax, uniform_init
from .tokenizer import Vocab

__all__ = [
    "ViTConfig",
    "TextEncoderConfig",
    "EncoderParams",
    "init_vit_params",
    "init_text_params",
    "init_projection_params",
    "sinusoidal_positions",
    "patchify",
    "encode_images",
    "encode_texts",
    "project_to_shared",
    "padded_width",
]

MASK_OFF = -1e9  # additive score for masked keys; exp underflows to exactly 0
PAD_MULTIPLE = 8  # a text stack pads to its longest row rounded up to this, capped at max_len


@dataclass(frozen=True)
class ViTConfig:
    image_side: int = 32
    channels: int = 3
    patch: int = 8
    width: int = 32
    layers: int = 2
    heads: int = 2
    mlp_factor: int = 4

    def __post_init__(self):
        if self.image_side % self.patch:
            raise ContractError(f"image side {self.image_side} not divisible by patch {self.patch}")
        if self.width % self.heads:
            raise ContractError(f"width {self.width} not divisible by heads {self.heads}")

    @property
    def n_patches(self) -> int:
        return (self.image_side // self.patch) ** 2


@dataclass(frozen=True)
class TextEncoderConfig:
    """Text encoder shape; the vocab owns its size and pad id (``Vocab``)."""

    max_len: int = 64
    width: int = 32
    layers: int = 2
    heads: int = 2

    def __post_init__(self):
        if self.width % self.heads:
            raise ContractError(f"width {self.width} not divisible by heads {self.heads}")


@dataclass(frozen=True)
class EncoderParams:
    """Weight tensors, as a read-only mapping, plus the config that shapes them."""

    config: object
    tensors: Mapping[str, Tensor]

    def __post_init__(self):
        object.__setattr__(self, "tensors", MappingProxyType(dict(self.tensors)))

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{k}": v for k, v in self.tensors.items()}


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Fixed sin/cos positional table, shape (n, d)."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def _attention_layer_params(d: int, rng) -> dict[str, Tensor]:
    p = {}
    for name in ("wq", "wk", "wv", "wo"):
        p[name] = uniform_init((d, d), d, rng)
    for name in ("bq", "bk", "bv", "bo"):
        p[name] = Tensor(np.zeros(d), requires_grad=True)
    p["ln1.g"] = Tensor(np.ones(d), requires_grad=True)
    p["ln1.b"] = Tensor(np.zeros(d), requires_grad=True)
    return p


def init_vit_params(config: ViTConfig, seed: int) -> EncoderParams:
    rng = np.random.default_rng(seed)
    d = config.width
    patch_dim = config.patch * config.patch * config.channels
    hidden = config.mlp_factor * d
    t: dict[str, Tensor] = {}
    t["patch.w"] = uniform_init((patch_dim, d), patch_dim, rng)
    t["patch.b"] = Tensor(np.zeros(d), requires_grad=True)
    t["cls"] = uniform_init((d,), d, rng)
    for i in range(config.layers):
        for k, v in _attention_layer_params(d, rng).items():
            t[f"blk{i}.{k}"] = v
        t[f"blk{i}.mlp.w1"] = uniform_init((d, hidden), d, rng)
        t[f"blk{i}.mlp.b1"] = Tensor(np.zeros(hidden), requires_grad=True)
        t[f"blk{i}.mlp.w2"] = uniform_init((hidden, d), hidden, rng)
        t[f"blk{i}.mlp.b2"] = Tensor(np.zeros(d), requires_grad=True)
        t[f"blk{i}.ln2.g"] = Tensor(np.ones(d), requires_grad=True)
        t[f"blk{i}.ln2.b"] = Tensor(np.zeros(d), requires_grad=True)
    return EncoderParams(config=config, tensors=t)


def init_text_params(config: TextEncoderConfig, vocab_size: int, seed: int) -> EncoderParams:
    rng = np.random.default_rng(seed)
    d = config.width
    t: dict[str, Tensor] = {}
    t["tok.w"] = uniform_init((vocab_size, d), d, rng)
    for i in range(config.layers):
        for k, v in _attention_layer_params(d, rng).items():
            t[f"blk{i}.{k}"] = v
    return EncoderParams(config=config, tensors=t)


def init_projection_params(d_in: int, d_out: int, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    return {"w": uniform_init((d_in, d_out), d_in, rng),
            "b": Tensor(np.zeros(d_out), requires_grad=True)}


# -- patch extraction --------------------------------------------------------


def patchify(images: Tensor, p: int) -> Tensor:
    """Cut a (B, H, W, C) stack into non-overlapping p x p patches.

    Returns (B, N, p*p*C) with N = HW/p^2, patches in row-major order
    and each patch flattened row-major.
    """
    images = Tensor._coerce(images)
    if images.ndim != 4:
        raise DimensionError(f"patchify expects (B,H,W,C), got {images.shape}")
    b, h, w, c = images.shape
    if h % p or w % p:
        raise DimensionError(f"image dims ({h}, {w}) not divisible by patch {p}")
    x = images.reshape(b, h // p, p, w // p, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, (h // p) * (w // p), p * p * c)


# -- shared attention machinery ----------------------------------------------


def _mha(z: Tensor, t: dict[str, Tensor], prefix: str, heads: int,
         mask: Tensor | None = None) -> Tensor:
    b, n, d = z.shape
    dh = d // heads
    q = linear(z, t[f"{prefix}.wq"], t[f"{prefix}.bq"]).reshape(b, n, heads, dh).transpose(0, 2, 1, 3)
    k = linear(z, t[f"{prefix}.wk"], t[f"{prefix}.bk"]).reshape(b, n, heads, dh).transpose(0, 2, 1, 3)
    v = linear(z, t[f"{prefix}.wv"], t[f"{prefix}.bv"]).reshape(b, n, heads, dh).transpose(0, 2, 1, 3)
    scores = matmul(q, k.transpose(0, 1, 3, 2)) / np.sqrt(dh)
    if mask is not None:
        scores = scores + mask
    mixed = matmul(softmax(scores, axis=-1), v)
    mixed = mixed.transpose(0, 2, 1, 3).reshape(b, n, d)
    return linear(mixed, t[f"{prefix}.wo"], t[f"{prefix}.bo"])


def _vit_block(z: Tensor, t: dict[str, Tensor], i: int, heads: int) -> Tensor:
    attn = _mha(z, t, f"blk{i}", heads)
    z = layer_norm(attn + z, t[f"blk{i}.ln1.g"], t[f"blk{i}.ln1.b"])
    mlp = linear(z, t[f"blk{i}.mlp.w1"], t[f"blk{i}.mlp.b1"])
    mlp = linear(mlp.gelu(), t[f"blk{i}.mlp.w2"], t[f"blk{i}.mlp.b2"])
    return layer_norm(mlp + z, t[f"blk{i}.ln2.g"], t[f"blk{i}.ln2.b"])


def _text_block(z: Tensor, t: dict[str, Tensor], i: int, heads: int, mask: Tensor) -> Tensor:
    attn = _mha(z, t, f"blk{i}", heads, mask)
    return layer_norm(attn + z, t[f"blk{i}.ln1.g"], t[f"blk{i}.ln1.b"])


# -- encoders ------------------------------------------------------------------


def encode_images(images: Tensor, params: EncoderParams) -> Tensor:
    """Encode a (B, H, W, C) stack; returns the (B, d) [CLS] rows."""
    cfg: ViTConfig = params.config
    images = Tensor._coerce(images)
    if images.ndim != 4 or images.shape[1:] != (cfg.image_side, cfg.image_side, cfg.channels):
        raise DimensionError(
            f"image batch shape {images.shape} does not match config "
            f"({cfg.image_side}, {cfg.image_side}, {cfg.channels})"
        )
    t = params.tensors
    b = images.shape[0]
    patches = patchify(images, cfg.patch)
    z = linear(patches, t["patch.w"], t["patch.b"])  # (B, N, d)
    cls_row = t["cls"].reshape(1, 1, cfg.width).broadcast_to((b, 1, cfg.width))
    z = concat([cls_row, z], axis=1)  # (B, N+1, d)
    pos = Tensor(sinusoidal_positions(cfg.n_patches + 1, cfg.width)[None, :, :])
    z = z + pos
    for i in range(cfg.layers):
        z = _vit_block(z, t, i, cfg.heads)
    return z[:, 0, :]


def padded_width(length: int, max_len: int) -> int:
    """The width a ``length``-token row pads to: ``length`` rounded up to a
    multiple of ``PAD_MULTIPLE``, capped at ``max_len``."""
    return min(-(-length // PAD_MULTIPLE) * PAD_MULTIPLE, max_len)


def _ids_and_mask(sequences, cfg: TextEncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    rows = []
    for seq in sequences:
        ids = list(seq.ids)
        if len(ids) > cfg.max_len:
            raise ContractError(f"sequence length {len(ids)} exceeds max {cfg.max_len}")
        rows.append(ids)
    if not rows:
        raise ContractError("encode_texts needs at least one sequence")
    ids = np.full((len(rows), padded_width(max(map(len, rows)), cfg.max_len)), Vocab.pad_id,
                  dtype=np.int64)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
    return ids, ids == Vocab.pad_id


def encode_texts(sequences, params: EncoderParams) -> Tensor:
    """Encode a batch of token sequences; returns (B, d) [CLS] rows.

    Sequences are right-padded to ``padded_width`` of the longest one, and
    pad keys are masked out of every attention row, so pads never leak
    into [CLS]. A row's values depend on its own tokens and that width
    only: rows padded to one width are bit-identical whatever else is in
    the stack. An empty batch raises ContractError.
    """
    cfg: TextEncoderConfig = params.config
    t = params.tensors
    ids, pad = _ids_and_mask(sequences, cfg)
    b, n = ids.shape
    z = t["tok.w"][ids]  # gather -> (B, L, d)
    pos = Tensor(sinusoidal_positions(n, cfg.width)[None, :, :])
    z = z + pos
    mask = Tensor(np.where(pad, MASK_OFF, 0.0)[:, None, None, :])
    for i in range(cfg.layers):
        z = _text_block(z, t, i, cfg.heads, mask)
    return z[:, 0, :]


def project_to_shared(f: Tensor, params: dict[str, Tensor]) -> Tensor:
    """(B, d_in) features -> (B, d_out) rows: a linear projection, then
    L2 normalization of each row to unit length. The projection runs as a
    stack of B one-row products, so each row is bit-identical whatever B
    is (a (B, d_in) product may sum a row in another order)."""
    f = Tensor._coerce(f)
    if f.ndim != 2:
        raise DimensionError(f"project_to_shared expects (B, d), got {f.shape}")
    b, k = f.shape
    rows = linear(f.reshape(b, 1, k), params["w"], params["b"])
    return l2_normalize(rows.reshape(b, rows.shape[-1]))
