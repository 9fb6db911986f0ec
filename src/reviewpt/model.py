"""Transformer encoder at configurable size, plus the five output heads.

The encoder sums token/position/segment embeddings and applies
``num_layers`` blocks of multi-head self-attention (with a padding mask)
and a gelu feedforward, each followed by add&norm.  Each block is built
from two fused autograd ops: :func:`~reviewpt.autograd.linear` for every
projection (one GEMM over all ``B * L`` rows, bias included) and
:func:`~reviewpt.autograd.attention` for the scores, masked softmax,
dropout and context of all heads as one graph node.

There is one layout: :func:`encode_batch` returns hidden states
``[B, L, H]`` (batch, position, hidden), and every head reads them and
returns one row per example.  Training runs batches of many examples and
inference runs batches of one through the same heads.  Heads never mutate
parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor


@dataclass
class ModelConfig:
    num_layers: int
    hidden_size: int
    num_heads: int
    feedforward_size: int
    vocab_size: int
    max_positions: int = 320
    num_segments: int = 2
    dropout_rate: float = 0.1
    tie_mlm: bool = False

    def __post_init__(self):
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


# Desk-scale presets; "base" mirrors the full-size setting but is not
# expected to be trained here.
PRESETS = {
    "tiny": dict(num_layers=2, hidden_size=64, num_heads=2, feedforward_size=256),
    "small": dict(num_layers=4, hidden_size=128, num_heads=4, feedforward_size=512),
    "base": dict(num_layers=12, hidden_size=768, num_heads=12, feedforward_size=3072),
}


def preset_config(name: str, vocab_size: int, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    kw = dict(PRESETS[name])
    kw.update(vocab_size=vocab_size)
    kw.update(overrides)
    return ModelConfig(**kw)


class ModelParameters:
    """All trainable weights, as an ordered name -> Tensor mapping."""

    def __init__(self, tensors: dict[str, Tensor], config: ModelConfig):
        self.tensors = tensors
        self.config = config

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def items(self):
        return self.tensors.items()

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def mlm_table(self) -> Tensor:
        return self.tensors["tok_emb"] if self.config.tie_mlm else self.tensors["mlm.proj"]

    def copy_data(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_data(self, blobs: dict[str, np.ndarray]) -> None:
        for name, arr in blobs.items():
            t = self.tensors[name]
            if t.data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {t.data.shape} vs {arr.shape}")
            t.data = arr.astype(t.data.dtype, copy=True)


def init_parameters(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParameters:
    """Fresh parameters: normal(0, 0.02) weights, zero biases, unit norm gains."""
    rng = np.random.default_rng(seed)
    h, f, v = config.hidden_size, config.feedforward_size, config.vocab_size

    def w(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape).astype(dtype), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    t: dict[str, Tensor] = {}
    t["tok_emb"] = w(v, h)
    t["pos_emb"] = w(config.max_positions, h)
    t["seg_emb"] = w(config.num_segments, h)
    for i in range(config.num_layers):
        p = f"layer{i}."
        for name in ("wq", "wk", "wv", "wo"):
            t[p + "attn." + name] = w(h, h)
        for name in ("bq", "bk", "bv", "bo"):
            t[p + "attn." + name] = zeros(h)
        t[p + "attn.norm_gain"] = ones(h)
        t[p + "attn.norm_bias"] = zeros(h)
        t[p + "ff.w_in"] = w(h, f)
        t[p + "ff.b_in"] = zeros(f)
        t[p + "ff.w_out"] = w(f, h)
        t[p + "ff.b_out"] = zeros(h)
        t[p + "ff.norm_gain"] = ones(h)
        t[p + "ff.norm_bias"] = zeros(h)
    if not config.tie_mlm:
        t["mlm.proj"] = w(v, h)
    t["mlm.bias"] = zeros(v)
    t["pair.w"] = w(2, h)
    t["pair.b"] = zeros(2)
    t["span.w1"] = w(1, h)
    t["span.b1"] = zeros(1)
    t["span.w2"] = w(1, h)
    t["span.b2"] = zeros(1)
    t["tag.w"] = w(3, h)
    t["tag.b"] = zeros(3)
    t["cls.w"] = w(3, h)
    t["cls.b"] = zeros(3)
    return ModelParameters(t, config)


def encode_batch(
    params: ModelParameters,
    config: ModelConfig,
    ids: np.ndarray,
    segments: np.ndarray,
    pad_mask: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the encoder over an id batch; returns hidden states [B, L, H].

    In ``train_mode`` with dropout on, every mask is drawn from ``rng``, which
    must be given.
    """
    ids = np.asarray(ids, dtype=np.int64)
    segments = np.asarray(segments, dtype=np.int64)
    b, length = ids.shape
    if length > config.max_positions:
        raise ValueError(f"input length {length} exceeds max_positions {config.max_positions}")
    if ids.max() >= config.vocab_size:
        raise ValueError(f"token id {ids.max()} out of range for vocab_size {config.vocab_size}")
    if train_mode and config.dropout_rate > 0 and rng is None:
        raise ValueError("training with dropout needs an rng")

    t = params.tensors
    dtype = t["tok_emb"].dtype
    nh = config.num_heads

    pos = np.broadcast_to(np.arange(length), (b, length))
    x = ag.add(
        ag.add(ag.take_rows(t["tok_emb"], ids), ag.take_rows(t["pos_emb"], pos)),
        ag.take_rows(t["seg_emb"], segments),
    )
    x = ag.dropout(x, config.dropout_rate, rng, train=train_mode)

    # keys at padded positions are pushed to ~0 attention probability
    attn_bias = ((1.0 - np.asarray(pad_mask, dtype=dtype)) * ag.MASK_FILL)[:, None, None, :]

    for i in range(config.num_layers):
        p = f"layer{i}."
        q = ag.linear(x, t[p + "attn.wq"], t[p + "attn.bq"])
        k = ag.linear(x, t[p + "attn.wk"], t[p + "attn.bk"])
        v = ag.linear(x, t[p + "attn.wv"], t[p + "attn.bv"])
        ctx = ag.attention(q, k, v, attn_bias, nh, config.dropout_rate, rng, train_mode)
        attn_out = ag.linear(ctx, t[p + "attn.wo"], t[p + "attn.bo"])
        attn_out = ag.dropout(attn_out, config.dropout_rate, rng, train=train_mode)
        x = ag.layer_norm(ag.add(x, attn_out), t[p + "attn.norm_gain"], t[p + "attn.norm_bias"])
        ff = ag.gelu(ag.linear(x, t[p + "ff.w_in"], t[p + "ff.b_in"]))
        ff = ag.linear(ff, t[p + "ff.w_out"], t[p + "ff.b_out"])
        ff = ag.dropout(ff, config.dropout_rate, rng, train=train_mode)
        x = ag.layer_norm(ag.add(x, ff), t[p + "ff.norm_gain"], t[p + "ff.norm_bias"])
    return x


# -- heads ---------------------------------------------------------------------


def span_logits(params: ModelParameters, hidden: Tensor, valid_mask) -> tuple[Tensor, Tensor]:
    """Start/end pointer logits [B, L]; positions outside ``valid_mask`` get ``MASK_FILL``."""
    valid_mask = np.asarray(valid_mask, dtype=bool)
    if not valid_mask.any(axis=-1).all():
        raise ValueError("empty valid region")
    t = params.tensors
    bias = np.where(valid_mask, 0.0, ag.MASK_FILL).astype(hidden.dtype)
    l1 = ag.add(ag.reshape(ag.matmul(hidden, ag.transpose(t["span.w1"], (1, 0))), hidden.shape[:2]), t["span.b1"])
    l2 = ag.add(ag.reshape(ag.matmul(hidden, ag.transpose(t["span.w2"], (1, 0))), hidden.shape[:2]), t["span.b2"])
    return ag.add(l1, bias), ag.add(l2, bias)


def span_probs_batch(params: ModelParameters, hidden: Tensor, valid_mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Start/end pointer distributions [B, L]; invalid positions get ~0."""
    l1, l2 = span_logits(params, hidden, valid_mask)
    return ag.softmax_rows(l1, axis=-1), ag.softmax_rows(l2, axis=-1)


def tag_logits(params: ModelParameters, hidden: Tensor) -> Tensor:
    """Per-position B/I/O logits [B, L, 3]."""
    t = params.tensors
    return ag.add(ag.matmul(hidden, ag.transpose(t["tag.w"], (1, 0))), t["tag.b"])


def tag_probs_batch(params: ModelParameters, hidden: Tensor) -> Tensor:
    """Per-position B/I/O distributions [B, L, 3]."""
    return ag.softmax_rows(tag_logits(params, hidden), axis=-1)


def cls_hidden_batch(hidden: Tensor) -> Tensor:
    return ag.take(hidden, (slice(None), 0))  # [B, H]


def class_logits(params: ModelParameters, hidden: Tensor) -> Tensor:
    """Polarity logits [B, 3] over {positive, negative, neutral} from [CLS]."""
    t = params.tensors
    return ag.add(ag.matmul(cls_hidden_batch(hidden), ag.transpose(t["cls.w"], (1, 0))), t["cls.b"])


def class_probs_batch(params: ModelParameters, hidden: Tensor) -> Tensor:
    """Polarity distributions [B, 3]."""
    return ag.softmax_rows(class_logits(params, hidden), axis=-1)


def pair_probs_batch(params: ModelParameters, hidden: Tensor) -> Tensor:
    """Same-review / cross-review distributions [B, 2] from [CLS]."""
    t = params.tensors
    logits = ag.add(ag.matmul(cls_hidden_batch(hidden), ag.transpose(t["pair.w"], (1, 0))), t["pair.b"])
    return ag.softmax_rows(logits, axis=-1)


def mlm_probs_flat(params: ModelParameters, hidden: Tensor, flat_positions: np.ndarray) -> Tensor:
    """MLM distributions for positions indexed into the flattened [B*L] batch."""
    b, length, h = hidden.shape
    rows = ag.take(ag.reshape(hidden, (b * length, h)), np.asarray(flat_positions, dtype=np.int64))
    logits = ag.add(ag.matmul(rows, ag.transpose(params.mlm_table(), (1, 0))), params.tensors["mlm.bias"])
    return ag.softmax_rows(logits, axis=-1)
