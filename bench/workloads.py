"""Workload definitions and the seeded synthetic world each one runs on.

Every workload is the paper's pipeline in miniature: post-train on the
domain-knowledge (DK) and general-QA MRC streams, fine-tune RRC, AE and ASC,
and evaluate each task on a held-out set.  The workloads differ in preset,
sequence length, how much of each sequence is padding, and how a round of
work is split between the three phases.  A round is a fixed amount of work,
and every round of a run repeats the same work on the same inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import synthworld as W
from reviewpt import checkpoint as C
from reviewpt import data as D
from reviewpt import model as M
from reviewpt import training as T

TASKS = ("rrc", "ae", "asc")
LEARNING_RATE = 1e-3  # at the library default 3e-5, 20 steps barely move the loss
CLIP_NORM = 1.0  # > 0 so gradient clipping runs and is measured
FINETUNE_EPOCHS = 1
VOCAB_SIZE = 400
DENSE_MAX_PAD = 0.1  # padding share a dense workload allows in any stream


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    max_len: int
    dense: bool  # join several synthworld documents so padding is small
    steps_per_round: int  # post-train steps per posttrain_run call
    checkpoint_every: int  # divides steps_per_round, so every round writes the same checkpoints
    finetune_examples: int  # per task and round
    valid_examples: int  # per task, evaluated inside finetune after each epoch
    eval_examples: int  # per task and round, held out
    tail_steps: int  # post-train steps the tail percentile is taken over; sets the minimum rounds
    batch: int = 16  # examples per stream per post-train step, and per fine-tune batch
    sub_batches: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="posttrain-pad320",
            why="paper length 320 at tiny: about 91% of post-train positions are padding, so padding, "
            "elementwise, attention and graph-memory work dominate",
            preset="tiny",
            max_len=320,
            dense=False,
            steps_per_round=4,
            checkpoint_every=2,
            finetune_examples=16,
            valid_examples=8,
            eval_examples=32,
            tail_steps=36,
        ),
        Workload(
            name="posttrain-dense",
            why="small preset on joined documents with at most 10% padding in every stream: "
            "bypasses padding work, time goes to matmul, gelu, layer norm and Adam",
            preset="small",
            max_len=64,
            dense=True,
            steps_per_round=6,
            checkpoint_every=3,
            finetune_examples=16,
            valid_examples=8,
            eval_examples=64,
            tail_steps=60,
        ),
    )
}


@dataclass
class World:
    """Everything set-up produces: inputs, vocabulary, model config and base checkpoint."""

    vocab: object
    model_config: M.ModelConfig
    dk: list
    mrc: list
    tasks: dict  # task -> (train, valid, held-out)
    base: C.Checkpoint
    raw_counts: dict  # loader -> records handed to it
    fingerprint: str = ""
    pad_frac: float = 0.0


# -- joined (dense) documents ------------------------------------------------------


def _joined_squad(blob, k, seed):
    """Join every k paragraphs into one; the question comes from one of the first two."""
    src = [p for art in blob["data"] for p in art["paragraphs"]]
    rng = np.random.default_rng([seed, 7])
    paragraphs = []
    for i in range(len(src) // k):
        group = src[i * k : (i + 1) * k]
        pick = int(rng.integers(2))
        shift = sum(len(p["context"]) + 1 for p in group[:pick])
        qa = group[pick]["qas"][0]
        answer = qa["answers"][0]
        paragraphs.append(
            {
                "context": " ".join(p["context"] for p in group),
                "qas": [
                    {
                        "id": qa["id"],
                        "question": qa["question"],
                        "answers": [{"text": answer["text"], "answer_start": answer["answer_start"] + shift}],
                    }
                ],
            }
        )
    return {"version": "1.1", "data": [{"title": "joined", "paragraphs": paragraphs}]}


def _joined_bio(text, k):
    blocks = [b for b in text.split("\n\n") if b.strip()]
    joined = ["\n".join(blocks[i * k : (i + 1) * k]) for i in range(len(blocks) // k)]
    return "\n\n".join(joined) + "\n"


def _joined_asc(text, k, seed):
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    rng = np.random.default_rng([seed, 11])
    out = []
    for i in range(len(rows) // k):
        group = rows[i * k : (i + 1) * k]
        pick = int(rng.integers(2))
        shift = sum(len(r["sentence"]) + 1 for r in group[:pick])
        row = dict(group[pick])
        row.update(
            sentence=" ".join(r["sentence"] for r in group),
            **{"from": row["from"] + shift, "to": row["to"] + shift},
        )
        out.append(json.dumps(row))
    return "\n".join(out) + "\n"


# Documents joined per example in dense workloads, sized so a 64-token
# sequence is (nearly) full in every stream.
_JOIN = {"reviews": 3, "general": 4, "rrc": 3, "ae": 12, "asc": 12}


def _generate(w: Workload, seed: int, n: dict) -> dict:
    """Raw synthworld records for every stream, from the seed alone."""
    k = _JOIN if w.dense else dict.fromkeys(_JOIN, 1)
    raw = {
        "reviews": W.make_reviews(n["dk"] * k["reviews"], seed=seed + 1),
        "general": W.make_general_qa_squad(n["mrc"] * k["general"], seed=seed + 2),
    }
    for i, part in enumerate(("train", "valid", "heldout")):
        s = seed + 10 * (i + 1)
        raw["rrc", part] = W.make_rrc_squad(n[part] * k["rrc"], seed=s + 3)
        raw["ae", part] = W.make_bio_lines(n[part] * k["ae"], seed=s + 4)
        raw["asc", part] = W.make_asc_lines(n[part] * k["asc"], seed=s + 5)
    if w.dense:
        reviews, j = raw["reviews"], k["reviews"]
        raw["reviews"] = [" ".join(reviews[i : i + j]) for i in range(0, len(reviews), j)]
        raw["general"] = _joined_squad(raw["general"], k["general"], seed)
        for part in ("train", "valid", "heldout"):
            raw["rrc", part] = _joined_squad(raw["rrc", part], k["rrc"], seed)
            raw["ae", part] = _joined_bio(raw["ae", part], k["ae"])
            raw["asc", part] = _joined_asc(raw["asc", part], k["asc"], seed)
    return raw


def build_world(w: Workload, seed: int, workdir: Path) -> World:
    """Set-up: vocabulary, encoded inputs and the base checkpoint, all from ``seed``.

    Every call into reviewpt goes through its module attribute, so wrappers
    installed by the tracer see it.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    pool = w.steps_per_round * w.batch  # one round uses every post-train example once
    n = {"dk": pool, "mrc": pool, "train": w.finetune_examples, "valid": w.valid_examples, "heldout": w.eval_examples}
    raw = _generate(w, seed, n)
    vocab = W.world_vocab(VOCAB_SIZE, seed=seed)
    dk = list(D.make_dk_examples(raw["reviews"], vocab, max_len=w.max_len, duplicate_factor=1, seed=seed))
    mrc = W.load_rrc_examples(workdir, raw["general"], vocab, w.max_len, name="general.json")
    tasks = {}
    for task in TASKS:
        sets = []
        for part in ("train", "valid", "heldout"):
            blob = raw[task, part]
            name = f"{task}_{part}"
            if task == "rrc":
                sets.append(W.load_rrc_examples(workdir, blob, vocab, w.max_len, name=name + ".json"))
            elif task == "ae":
                sets.append(W.load_bio_examples(workdir, blob, vocab, w.max_len, name=name + ".bio"))
            else:
                sets.append(W.load_asc_examples(workdir, blob, vocab, w.max_len, name=name + ".jsonl"))
        tasks[task] = tuple(sets)
    model_config = M.preset_config(w.preset, len(vocab), max_positions=max(w.max_len, 320))
    raw_counts = {
        "mrc": n["mrc"] + sum(n[p] for p in ("train", "valid", "heldout")),
        "bio": sum(n[p] for p in ("train", "valid", "heldout")),
        "asc": sum(n[p] for p in ("train", "valid", "heldout")),
    }
    world = World(vocab, model_config, dk, mrc, tasks, base=None, raw_counts=raw_counts)
    world.base = _base_checkpoint(seed, world, workdir)
    world.fingerprint = input_fingerprint(world)
    world.pad_frac = pad_fraction(world)
    return world


def _base_checkpoint(seed: int, world: World, workdir: Path) -> C.Checkpoint:
    """Initial weights, saved and loaded back."""
    digest = world.vocab.digest()
    params = M.init_parameters(world.model_config, seed=seed)
    path = workdir / "base.ckpt"
    C.save_checkpoint(path, params, digest, 0, seed)
    base = C.load_checkpoint(path, expect_vocab_digest=digest)
    for name, tensor in params.items():
        if not np.array_equal(base.blobs[name], tensor.data):
            raise RuntimeError(f"checkpoint round trip changed {name}")
    return base


def posttrain_config(w: Workload, seed: int, steps: int) -> T.PostTrainConfig:
    return T.PostTrainConfig(
        total_steps=steps,
        max_len=w.max_len,
        batch_per_knowledge=w.batch,
        sub_batches=w.sub_batches,
        learning_rate=LEARNING_RATE,
        seed=seed,
        clip_norm=CLIP_NORM,
        checkpoint_every=w.checkpoint_every,
    )


def finetune_config(w: Workload, seed: int, task: str) -> T.FineTuneConfig:
    return T.FineTuneConfig(
        task=task,
        max_epochs=FINETUNE_EPOCHS,
        learning_rate=LEARNING_RATE,
        seed=seed,
        batch_size=w.batch,
        clip_norm=CLIP_NORM,
    )


# -- exact input counters ------------------------------------------------------------


def _streams(world: World):
    yield "dk", world.dk
    yield "mrc", world.mrc
    for task in TASKS:
        for part, examples in zip(("train", "valid", "heldout"), world.tasks[task]):
            yield f"{task}.{part}", examples


def input_fingerprint(world: World) -> str:
    """sha256 over the vocabulary digest and every packed input and target."""
    h = hashlib.sha256(world.vocab.digest())

    def put(*arrays):
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())

    for name, examples in _streams(world):
        h.update(f"{name}:{len(examples)}".encode())
        for ex in examples:
            put(ex.packed.ids, ex.packed.segments, ex.packed.pad_mask)
            if isinstance(ex, D.DkExample):
                put(np.array(ex.mlm_targets, dtype=np.int64).reshape(-1, 2), [ex.pair_label])
            elif isinstance(ex, D.MrcExample):
                put([ex.start_token, ex.end_token])
            elif isinstance(ex, D.BioExample):
                put(ex.token_labels, ex.label_mask)
            else:
                put([ex.label])
    return h.hexdigest()


def pad_fraction(world: World) -> float:
    """Share of packed positions, over all streams, that are padding."""
    real = total = 0
    for _, examples in _streams(world):
        for ex in examples:
            real += int(ex.packed.pad_mask.sum())
            total += ex.packed.pad_mask.size
    return 1.0 - real / total


def stream_pad_fractions(world: World) -> dict:
    out = {}
    for name, examples in _streams(world):
        masks = [ex.packed.pad_mask for ex in examples]
        out[name] = 1.0 - sum(int(m.sum()) for m in masks) / max(1, sum(m.size for m in masks))
    return out
