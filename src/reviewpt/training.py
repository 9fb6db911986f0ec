"""Joint post-training and task fine-tuning loops.

One post-training step consumes one batch per knowledge type (domain and
MRC), splits each into ``u`` sub-batches, accumulates gradients of the
scaled partial losses, and applies a single Adam update.  The partial-loss
scaling is chosen so the accumulated gradient is EXACTLY the gradient of
the whole-batch joint loss, for every ``u`` that divides the batch: the
per-example terms (pair detection, span pointers) are divided by ``u``,
while the masked-token term is summed against the full batch's masked
count, which keeps its mean well-defined even though sub-batches carry
different numbers of masked positions.

Fine-tuning runs epoch passes with per-epoch validation and returns the
best-epoch parameters by the task's major metric.

Both loops share one path per training concern: ``_start`` checks the
vocabulary digest and restores ``init`` or builds fresh parameters,
``_backward`` rejects a non-finite loss before back-propagating it, and
``_update`` clips the global gradient norm and applies one Adam step.

Every random draw in training is a pure function of its position, so no
generator or stream cursor lives across steps or batches:

- post-train step ``s`` takes ``order[((s - 1) * bpk + j) % n]`` for
  ``j < bpk`` from each stream, where each stream's ``order`` permutation
  comes from ``[seed, 17]`` alone;
- sub-batch ``i`` of post-train step ``s`` draws its dropout from
  ``default_rng([seed, 29, s, i])``;
- fine-tune epoch ``e`` is shuffled by ``default_rng([seed, 101, e])``, and
  its batch ``k`` draws dropout from ``default_rng([seed, 211, e, k])``.

So a run's state between steps is its parameters, its Adam moments and ``t``,
and the step number.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as M
from .autograd import Tensor, add, cross_entropy, mul, no_grad, reshape
from .checkpoint import Checkpoint, save_checkpoint
from .data import AscExample, BioExample, DkExample, MrcExample, POLARITIES, gold_chunks, span_valid_mask
from .decoding import decode_bio, decode_span, predict_polarity
from .metrics import EvalReport, ae_report, asc_report, squad_eval
from .model import ModelConfig, ModelParameters
from .optim import AdamState, adam_step, clip_grad_norm
from .tokenizer import Vocabulary


class NumericError(Exception):
    """A loss or gradient went non-finite."""


@dataclass
class PostTrainConfig:
    total_steps: int
    max_len: int = 320
    batch_per_knowledge: int = 16
    sub_batches: int = 2
    learning_rate: float = 3e-5
    seed: int = 0
    clip_norm: float = 0.0
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.batch_per_knowledge % self.sub_batches != 0:
            raise ValueError(
                f"batch_per_knowledge {self.batch_per_knowledge} not divisible by "
                f"sub_batches {self.sub_batches}"
            )


@dataclass
class FineTuneConfig:
    task: str
    max_epochs: int = 4
    learning_rate: float = 3e-5
    seed: int = 0
    batch_size: int = 16
    clip_norm: float = 0.0

    def __post_init__(self):
        if self.task not in ("rrc", "ae", "asc"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


def _encode(
    params: ModelParameters,
    packs,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Hidden states [B, L, H] of packed inputs stored at one padded length.

    The batch is collated at ``L = max(p.end_index for p in packs) + 1``, the
    longest real length in it: every position past that is padding in every
    row, so the encoder never runs on it.  Callers that stack per-position
    arrays next to the hidden states trim them to ``hidden.shape[1]``.
    """
    length = max(p.end_index for p in packs) + 1
    ids = np.stack([p.ids[:length] for p in packs])
    segs = np.stack([p.segments[:length] for p in packs])
    mask = np.stack([p.pad_mask[:length] for p in packs])
    return M.encode_batch(params, params.config, ids, segs, mask, train_mode=train_mode, rng=rng)


# -- losses -----------------------------------------------------------------


def _dk_parts(
    params: ModelParameters,
    batch: list[DkExample],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    mlm_denom: float | None = None,
) -> tuple[Tensor | None, Tensor]:
    """(masked-token loss or None, pair loss) for one batch."""
    hidden = _encode(params, [ex.packed for ex in batch], train_mode=train_mode, rng=rng)
    length = hidden.shape[1]
    flat_pos: list[int] = []
    flat_orig: list[int] = []
    for b, ex in enumerate(batch):
        for p, orig in ex.mlm_targets:
            flat_pos.append(b * length + p)
            flat_orig.append(orig)
    mlm = None
    if flat_pos:
        probs = M.mlm_probs_flat(params, hidden, np.array(flat_pos))
        mlm = cross_entropy(probs, np.array(flat_orig), denom=mlm_denom)
    pair = cross_entropy(
        M.pair_probs_batch(params, hidden),
        np.array([ex.pair_label for ex in batch]),
    )
    return mlm, pair


def dk_loss(
    params: ModelParameters,
    batch: list[DkExample],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Masked-token mean cross-entropy plus pair-detection cross-entropy.

    A batch with zero masked positions contributes the pair term only.
    """
    if not batch:
        raise ValueError("empty batch")
    mlm, pair = _dk_parts(params, batch, train_mode=train_mode, rng=rng)
    return pair if mlm is None else add(mlm, pair)


def mrc_loss(
    params: ModelParameters,
    batch: list[MrcExample],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Averaged cross-entropy on the two pointers, question side masked out."""
    if not batch:
        raise ValueError("empty batch")
    for ex in batch:
        if ex.packed is None or ex.start_token < 0:
            raise ValueError(f"example {ex.id} is not encoded")
    hidden = _encode(params, [ex.packed for ex in batch], train_mode=train_mode, rng=rng)
    valid = np.stack([span_valid_mask(ex.packed)[: hidden.shape[1]] for ex in batch])
    l1, l2 = M.span_probs_batch(params, hidden, valid)
    starts = np.array([ex.start_token for ex in batch])
    ends = np.array([ex.end_token for ex in batch])
    return mul(add(cross_entropy(l1, starts), cross_entropy(l2, ends)), 0.5)


def tag_loss(
    params: ModelParameters,
    batch: list[BioExample],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean cross-entropy over labeled (word-initial) positions."""
    if not batch:
        raise ValueError("empty batch")
    hidden = _encode(params, [ex.packed for ex in batch], train_mode=train_mode, rng=rng)
    probs = M.tag_probs_batch(params, hidden)  # [B, L, 3]
    b, length = hidden.shape[:2]
    flat = reshape(probs, (b * length, 3))
    targets = np.concatenate([ex.token_labels[:length] for ex in batch])
    row_mask = np.concatenate([ex.label_mask[:length] for ex in batch])
    return cross_entropy(flat, targets, row_mask=row_mask)


def asc_loss(
    params: ModelParameters,
    batch: list[AscExample],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    if not batch:
        raise ValueError("empty batch")
    hidden = _encode(params, [ex.packed for ex in batch], train_mode=train_mode, rng=rng)
    probs = M.class_probs_batch(params, hidden)
    return cross_entropy(probs, np.array([ex.label for ex in batch]))


# -- shared training path ------------------------------------------------------


def _start(
    init: Checkpoint | None, vocab: Vocabulary, model_config: ModelConfig, seed: int
) -> tuple[ModelParameters, bytes, int]:
    """(parameters, vocabulary digest, step) to train from: ``init``, or fresh."""
    digest = vocab.digest()
    if init is None:
        return M.init_parameters(model_config, seed=seed), digest, 0
    if init.vocab_digest != digest:
        raise ValueError("init checkpoint was built with a different vocabulary")
    return init.restore(), digest, init.step


def _backward(loss: Tensor) -> float:
    """Back-propagate ``loss`` and return its value; a non-finite loss raises."""
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss {value}")
    loss.backward()
    return value


def _update(params: ModelParameters, adam: AdamState, clip_norm: float) -> float | None:
    """Clip the accumulated gradients when ``clip_norm > 0``, then take one Adam step.

    Returns the global gradient norm before clipping, or None when
    ``clip_norm == 0`` (no norm is computed then).
    """
    norm = clip_grad_norm(params.tensors, clip_norm) if clip_norm > 0 else None
    adam_step(adam, params.tensors)
    return norm


# -- post-training ------------------------------------------------------------


def posttrain_step(
    params: ModelParameters,
    adam: AdamState,
    dk_batch: list[DkExample],
    mrc_batch: list[MrcExample],
    u: int,
    key: tuple[int, int] = (0, 0),
    clip_norm: float = 0.0,
) -> dict:
    """One accumulate-then-update step over paired DK/MRC batches.

    ``key`` is the run's ``(seed, step)``; sub-batch ``i`` draws its dropout
    from ``default_rng([seed, 29, step, i])``.  Reports the loss terms,
    ``grad_norm`` (the global gradient norm before clipping; None when
    ``clip_norm == 0``) and ``tokens`` (real tokens in both batches).
    """
    b = len(dk_batch)
    if len(mrc_batch) != b:
        raise ValueError(f"batch size mismatch: {b} DK vs {len(mrc_batch)} MRC")
    if b % u != 0:
        raise ValueError(f"sub-batch count u={u} does not divide batch size {b}")
    params.zero_grads()
    m_total = sum(len(ex.mlm_targets) for ex in dk_batch)
    sub = b // u
    inv_u = 1.0 / u
    seed, step = key
    l_mlm = l_nsp = l_mrc = 0.0
    for i in range(u):
        rng = np.random.default_rng([seed, 29, step, i])
        dk_i = dk_batch[i * sub : (i + 1) * sub]
        mrc_i = mrc_batch[i * sub : (i + 1) * sub]
        mlm_i, nsp_i = _dk_parts(params, dk_i, train_mode=True, rng=rng, mlm_denom=m_total or None)
        mrc_i_loss = mrc_loss(params, mrc_i, train_mode=True, rng=rng)
        partial = mul(add(nsp_i, mrc_i_loss), inv_u)
        if mlm_i is not None:
            partial = add(partial, mlm_i)
        _backward(partial)
        if mlm_i is not None:
            l_mlm += mlm_i.item()
        l_nsp += nsp_i.item() * inv_u
        l_mrc += mrc_i_loss.item() * inv_u
    grad_norm = _update(params, adam, clip_norm)
    return {
        "l_dk": l_mlm + l_nsp,
        "l_mlm": l_mlm,
        "l_nsp": l_nsp,
        "l_mrc": l_mrc,
        "grad_norm": grad_norm,
        "tokens": sum(ex.packed.end_index + 1 for ex in dk_batch + mrc_batch),
    }


def posttrain_run(
    config: PostTrainConfig,
    model_config: ModelConfig,
    vocab: Vocabulary,
    dk_examples: list[DkExample],
    mrc_examples: list[MrcExample],
    out_dir,
    init: Checkpoint | None = None,
) -> Checkpoint:
    """Run ``total_steps`` joint steps, cycling both streams; returns the
    final checkpoint (also written to ``out_dir``).

    A run from ``init`` continues at step ``init.step + 1``, and both streams
    continue where ``init.step`` steps left them.
    """
    if not dk_examples or not mrc_examples:
        raise ValueError("both example streams must be nonempty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, digest, start_step = _start(init, vocab, model_config, config.seed)
    adam = AdamState(params.tensors, learning_rate=config.learning_rate)
    order_rng = np.random.default_rng([config.seed, 17])
    dk_order = order_rng.permutation(len(dk_examples))
    mrc_order = order_rng.permutation(len(mrc_examples))
    bpk = config.batch_per_knowledge
    log_path = out_dir / "posttrain_log.jsonl"
    final_step = start_step
    with open(log_path, "a", encoding="utf-8") as log:
        for step in range(start_step + 1, start_step + config.total_steps + 1):
            t0 = time.perf_counter()
            picks = np.arange((step - 1) * bpk, step * bpk)
            report = posttrain_step(
                params,
                adam,
                [dk_examples[i] for i in dk_order.take(picks, mode="wrap")],
                [mrc_examples[i] for i in mrc_order.take(picks, mode="wrap")],
                config.sub_batches,
                key=(config.seed, step),
                clip_norm=config.clip_norm,
            )
            final_step = step
            log.write(
                json.dumps(
                    {"step": step, **report, "lr": config.learning_rate, "seconds": time.perf_counter() - t0},
                    sort_keys=True,
                )
                + "\n"
            )
            if config.checkpoint_every > 0 and step % config.checkpoint_every == 0:
                save_checkpoint(out_dir / f"step{step}.ckpt", params, digest, step, config.seed)
    save_checkpoint(out_dir / "final.ckpt", params, digest, final_step, config.seed)
    return Checkpoint(
        config=model_config,
        seed=config.seed,
        step=final_step,
        vocab_digest=digest,
        blobs=params.copy_data(),
    )


# -- task prediction and evaluation -------------------------------------------


def predict_rrc(params: ModelParameters, examples: list[MrcExample]) -> dict[str, str]:
    preds: dict[str, str] = {}
    with no_grad():
        for ex in examples:
            hidden = _encode(params, [ex.packed])
            valid = span_valid_mask(ex.packed)[None, : hidden.shape[1]]
            l1, l2 = M.span_probs_batch(params, hidden, valid)
            preds[ex.id] = decode_span(l1.data[0], l2.data[0], ex.packed).text
    return preds


def predict_ae(params: ModelParameters, examples: list[BioExample]) -> list[list[tuple[int, int]]]:
    chunks = []
    with no_grad():
        for ex in examples:
            hidden = _encode(params, [ex.packed])
            chunks.append(decode_bio(M.tag_logits(params, hidden).data[0], ex.packed))
    return chunks


def predict_asc(params: ModelParameters, examples: list[AscExample]) -> list[str]:
    preds = []
    with no_grad():
        for ex in examples:
            hidden = _encode(params, [ex.packed])
            preds.append(predict_polarity(M.class_logits(params, hidden).data[0]))
    return preds


def evaluate_task(params: ModelParameters, task: str, examples) -> EvalReport:
    if task == "rrc":
        preds = predict_rrc(params, examples)
        return squad_eval(preds, [(ex.id, ex.golds) for ex in examples])
    if task == "ae":
        preds = predict_ae(params, examples)
        return ae_report(preds, [gold_chunks(ex.labels) for ex in examples])
    if task == "asc":
        preds = predict_asc(params, examples)
        return asc_report(preds, [ex.polarity for ex in examples])
    raise ValueError(f"unknown task {task!r}")


_TASK_LOSS = {"rrc": mrc_loss, "ae": tag_loss, "asc": asc_loss}


def finetune(
    config: FineTuneConfig,
    model_config: ModelConfig,
    vocab: Vocabulary,
    train,
    valid,
    init: Checkpoint | None = None,
) -> tuple[Checkpoint, dict]:
    """Up to ``max_epochs`` passes; keeps the epoch best on the task's primary metric."""
    train = list(train)
    valid = list(valid)
    if not train or not valid:
        raise ValueError("empty train or valid set")
    params, digest, _ = _start(init, vocab, model_config, config.seed)
    adam = AdamState(params.tensors, learning_rate=config.learning_rate)
    loss_fn = _TASK_LOSS[config.task]
    best_metric = -1.0
    best_blobs = params.copy_data()
    best_epoch = 0
    history = []
    for epoch in range(1, config.max_epochs + 1):
        order = np.random.default_rng([config.seed, 101, epoch]).permutation(len(train))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(train), config.batch_size):
            rng = np.random.default_rng([config.seed, 211, epoch, n_batches])
            batch = [train[i] for i in order[lo : lo + config.batch_size]]
            params.zero_grads()
            # ``loss`` holds this batch's graph until the next batch or the
            # return.  Freed before validation instead, the next call's
            # backward took more than twice as many page faults (small
            # preset, 64 tokens) and fine-tuning ran about 15% slower.
            loss = loss_fn(params, batch, train_mode=True, rng=rng)
            epoch_loss += _backward(loss)
            _update(params, adam, config.clip_norm)
            n_batches += 1
        report = evaluate_task(params, config.task, valid)
        metric = report.primary_value
        history.append({"epoch": epoch, "train_loss": epoch_loss / max(1, n_batches), report.primary_metric: metric})
        if metric > best_metric:
            best_metric = metric
            best_blobs = params.copy_data()
            best_epoch = epoch
    ckpt = Checkpoint(
        config=model_config,
        seed=config.seed,
        step=best_epoch,
        vocab_digest=digest,
        blobs=best_blobs,
    )
    return ckpt, {
        "task": config.task,
        "metric": report.primary_metric,
        "best_epoch": best_epoch,
        "best_" + report.primary_metric: best_metric,
        "epochs": history,
    }
