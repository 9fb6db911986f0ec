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

:func:`parameter_layout` is the one list of parameter names and shapes:
an ordered ``{name: (shape, init)}`` map, ``init`` being ``"normal"``
(N(0, 0.02)), ``"zeros"`` or ``"ones"``.  :func:`init_parameters` fills it
in that order from one seeded generator, and
:meth:`~reviewpt.checkpoint.Checkpoint.restore` checks stored blobs against
it.  Segments are 0 (question/aspect side) and 1 (document side), so the
segment table has two rows, and masked-token prediction has its own
``mlm.proj`` table.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )


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

    def items(self):
        return self.tensors.items()

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def copy_data(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors.items()}


def parameter_layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every parameter's name -> (shape, init), in creation order."""
    h, f, v = config.hidden_size, config.feedforward_size, config.vocab_size
    layout = {
        "tok_emb": ((v, h), "normal"),
        "pos_emb": ((config.max_positions, h), "normal"),
        "seg_emb": ((2, h), "normal"),
    }
    for i in range(config.num_layers):
        p = f"layer{i}."
        layout.update(
            {
                p + "attn.wq": ((h, h), "normal"),
                p + "attn.wk": ((h, h), "normal"),
                p + "attn.wv": ((h, h), "normal"),
                p + "attn.wo": ((h, h), "normal"),
                p + "attn.bq": ((h,), "zeros"),
                p + "attn.bk": ((h,), "zeros"),
                p + "attn.bv": ((h,), "zeros"),
                p + "attn.bo": ((h,), "zeros"),
                p + "attn.norm_gain": ((h,), "ones"),
                p + "attn.norm_bias": ((h,), "zeros"),
                p + "ff.w_in": ((h, f), "normal"),
                p + "ff.b_in": ((f,), "zeros"),
                p + "ff.w_out": ((f, h), "normal"),
                p + "ff.b_out": ((h,), "zeros"),
                p + "ff.norm_gain": ((h,), "ones"),
                p + "ff.norm_bias": ((h,), "zeros"),
            }
        )
    layout.update(
        {
            "mlm.proj": ((v, h), "normal"),
            "mlm.bias": ((v,), "zeros"),
            "pair.w": ((2, h), "normal"),
            "pair.b": ((2,), "zeros"),
            "span.w1": ((1, h), "normal"),
            "span.b1": ((1,), "zeros"),
            "span.w2": ((1, h), "normal"),
            "span.b2": ((1,), "zeros"),
            "tag.w": ((3, h), "normal"),
            "tag.b": ((3,), "zeros"),
            "cls.w": ((3, h), "normal"),
            "cls.b": ((3,), "zeros"),
        }
    )
    return layout


def init_parameters(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParameters:
    """Fresh parameters: normal(0, 0.02) weights, zero biases, unit norm gains."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, (shape, init) in parameter_layout(config).items():
        if init == "normal":
            data = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        else:
            data = (np.zeros if init == "zeros" else np.ones)(shape, dtype=dtype)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParameters(tensors, config)


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
    logits = ag.add(ag.matmul(rows, ag.transpose(params.tensors["mlm.proj"], (1, 0))), params.tensors["mlm.bias"])
    return ag.softmax_rows(logits, axis=-1)
