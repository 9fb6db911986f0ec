"""End to end at the tiny preset: post-train, fine-tune, predict and evaluate.

Makes the same output checks as the benchmark, and checks that a second
identical run writes byte-identical checkpoints.  Also pins the post-train
step's exact gradient accumulation, the loops' non-finite loss check, the
post-train log record, the whole-model gradient, and that a batch is encoded
only to its longest real length, whatever length its inputs are stored at.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import synthworld as W
from reviewpt import training as T
from reviewpt.checkpoint import Checkpoint
from reviewpt.data import POLARITIES, make_dk_examples
from reviewpt.model import init_parameters, preset_config
from reviewpt.optim import AdamState, global_grad_norm

MAX_LEN = 64
TASKS = ("rrc", "ae", "asc")


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("world")
    vocab = W.world_vocab(400, seed=0)
    dk = list(make_dk_examples(W.make_reviews(8, seed=1), vocab, max_len=MAX_LEN, duplicate_factor=1, seed=0))
    mrc = W.load_rrc_examples(tmp, W.make_general_qa_squad(8, seed=2), vocab, MAX_LEN, name="general.json")
    tasks = {}
    for task in TASKS:
        sets = []
        for part, seed in (("train", 3), ("valid", 4), ("heldout", 5)):
            n, name = (4 if part == "train" else 3), f"{task}_{part}"
            if task == "rrc":
                sets.append(W.load_rrc_examples(tmp, W.make_rrc_squad(n, seed=seed), vocab, MAX_LEN, name=name))
            elif task == "ae":
                sets.append(W.load_bio_examples(tmp, W.make_bio_lines(n, seed=seed), vocab, MAX_LEN, name=name))
            else:
                sets.append(W.load_asc_examples(tmp, W.make_asc_lines(n, seed=seed), vocab, MAX_LEN, name=name))
        tasks[task] = sets
    model_config = preset_config("tiny", len(vocab), max_positions=MAX_LEN)
    return vocab, model_config, dk, mrc, tasks


def run_pipeline(world, out_dir):
    """(checkpoints by stage, predictions and reports by task) of one seeded run."""
    vocab, model_config, dk, mrc, tasks = world
    config = T.PostTrainConfig(
        total_steps=2, max_len=MAX_LEN, batch_per_knowledge=4, sub_batches=2, learning_rate=1e-3, clip_norm=1.0
    )
    base = T.posttrain_run(config, model_config, vocab, dk, mrc, out_dir)
    ckpts, preds, reports = {"posttrain": base}, {}, {}
    predict = {"rrc": T.predict_rrc, "ae": T.predict_ae, "asc": T.predict_asc}
    for task, (train, valid, heldout) in tasks.items():
        cfg = T.FineTuneConfig(task=task, max_epochs=1, learning_rate=1e-3, batch_size=4)
        ckpts[task], _ = T.finetune(cfg, model_config, vocab, train, valid, init=base)
        params = ckpts[task].restore()
        preds[task] = predict[task](params, heldout)
        reports[task] = T.evaluate_task(params, task, heldout)
    return ckpts, preds, reports


def test_pipeline_outputs_are_well_formed_and_reproducible(world, tmp_path):
    ckpts, preds, reports = run_pipeline(world, tmp_path / "a")
    tasks = world[4]

    rrc = tasks["rrc"][2]
    assert len(preds["rrc"]) == len(rrc)
    for ex in rrc:
        text = preds["rrc"][ex.id]
        assert text and text in ex.context
    ae = tasks["ae"][2]
    assert len(preds["ae"]) == len(ae)
    for ex, chunks in zip(ae, preds["ae"]):
        assert all(0 <= s <= e < len(ex.words) for s, e in chunks)
    assert len(preds["asc"]) == len(tasks["asc"][2])
    assert all(label in POLARITIES for label in preds["asc"])
    for report in reports.values():
        assert 0.0 <= report.primary_value <= 100.0

    again, preds2, _ = run_pipeline(world, tmp_path / "b")
    assert (tmp_path / "a" / "final.ckpt").read_bytes() == (tmp_path / "b" / "final.ckpt").read_bytes()
    for stage, ckpt in ckpts.items():
        assert list(ckpt.blobs) == list(again[stage].blobs)
        for name, blob in ckpt.blobs.items():
            assert blob.tobytes() == again[stage].blobs[name].tobytes(), f"{stage} {name}"
    assert preds2 == preds


def test_posttrain_step_gradient_does_not_depend_on_sub_batches(world):
    vocab, model_config, dk, mrc, _ = world
    config = replace(model_config, dropout_rate=0.0)
    # with u = 2 and u = 4 the first sub-batch has no masked tokens
    dk_batch = [replace(ex, mlm_targets=[]) for ex in dk[:2]] + dk[2:4]
    assert all(ex.mlm_targets for ex in dk_batch[2:])
    grads = {}
    for u in (1, 2, 4):
        params = init_parameters(config, seed=0, dtype=np.float64)
        T.posttrain_step(params, AdamState(params.tensors), dk_batch, mrc[:4], u, clip_norm=0.0)
        grads[u] = {name: tensor.grad.copy() for name, tensor in params.items()}
    for u in (2, 4):
        for name, grad in grads[1].items():
            np.testing.assert_allclose(grads[u][name], grad, rtol=1e-9, atol=1e-13, err_msg=f"u={u} {name}")


def test_non_finite_init_raises_numeric_error(world, tmp_path):
    vocab, model_config, dk, mrc, tasks = world
    blobs = init_parameters(model_config, seed=0).copy_data()
    blobs["layer1.ff.norm_gain"][:] = np.nan
    init = Checkpoint(config=model_config, seed=0, step=0, vocab_digest=vocab.digest(), blobs=blobs)
    config = T.PostTrainConfig(total_steps=1, max_len=MAX_LEN, batch_per_knowledge=4, sub_batches=2)
    with pytest.raises(T.NumericError):
        T.posttrain_run(config, model_config, vocab, dk, mrc, tmp_path, init=init)
    for task, (train, valid, _) in tasks.items():
        config = T.FineTuneConfig(task=task, max_epochs=1, batch_size=4)
        with pytest.raises(T.NumericError):
            T.finetune(config, model_config, vocab, train, valid, init=init)


def test_posttrain_reports_grad_norm_and_tokens(world, tmp_path):
    vocab, model_config, dk, mrc, _ = world
    params = init_parameters(model_config, seed=0)
    adam = AdamState(params.tensors)
    report = T.posttrain_step(params, adam, dk[:4], mrc[:4], 2, clip_norm=0.0)
    assert report["grad_norm"] is None
    assert report["tokens"] == sum(int(ex.packed.pad_mask.sum()) for ex in dk[:4] + mrc[:4])
    report = T.posttrain_step(params, adam, dk[:4], mrc[:4], 2, clip_norm=1e-3)
    assert report["grad_norm"] > 1e-3  # the norm before clipping
    assert global_grad_norm(params.tensors) == pytest.approx(1e-3)

    config = T.PostTrainConfig(total_steps=2, max_len=MAX_LEN, batch_per_knowledge=4, sub_batches=2, clip_norm=1.0)
    T.posttrain_run(config, model_config, vocab, dk, mrc, tmp_path)
    records = [json.loads(line) for line in (tmp_path / "posttrain_log.jsonl").read_text().splitlines()]
    assert [r["step"] for r in records] == [1, 2]
    for r in records:
        assert np.isfinite(r["grad_norm"]) and r["grad_norm"] > 0
        assert 0 < r["tokens"] <= 2 * config.batch_per_knowledge * MAX_LEN


def test_resumed_run_logs_the_same_step_as_an_uninterrupted_one(world, tmp_path):
    vocab, model_config, dk, mrc, _ = world
    config = T.PostTrainConfig(total_steps=3, max_len=MAX_LEN, batch_per_knowledge=4, sub_batches=2, clip_norm=1.0)
    T.posttrain_run(config, model_config, vocab, dk, mrc, tmp_path / "whole")
    part = T.posttrain_run(replace(config, total_steps=2), model_config, vocab, dk, mrc, tmp_path / "part")
    T.posttrain_run(replace(config, total_steps=1), model_config, vocab, dk, mrc, tmp_path / "resumed", init=part)

    def last_record(run):
        return json.loads((tmp_path / run / "posttrain_log.jsonl").read_text().splitlines()[-1])

    whole, resumed = last_record("whole"), last_record("resumed")
    assert whole["step"] == resumed["step"] == 3
    for key in ("l_mlm", "l_nsp", "l_mrc", "grad_norm", "tokens"):
        assert resumed[key] == whole[key], key


def test_encode_runs_to_the_longest_real_length(world):
    _, model_config, _, mrc, _ = world
    packs = [ex.packed for ex in mrc[:4]]
    lengths = [p.end_index + 1 for p in packs]
    assert len(set(lengths)) > 1 and max(lengths) < MAX_LEN
    assert lengths == [int(p.pad_mask.sum()) for p in packs]
    hidden = T._encode(init_parameters(model_config, seed=0), packs)
    assert hidden.shape == (4, max(lengths), model_config.hidden_size)


TRIM_LENS = (48, 96)


@pytest.fixture(scope="module")
def packed_twice(tmp_path_factory):
    """(model config, {max_len: examples by loss}): the same examples stored at two lengths."""
    vocab = W.world_vocab(400, seed=0)
    sets = {}
    for max_len in TRIM_LENS:
        tmp = tmp_path_factory.mktemp(f"len{max_len}")
        dk = make_dk_examples(W.make_reviews(4, seed=1), vocab, max_len=max_len, duplicate_factor=1, seed=0)
        sets[max_len] = {
            "dk": list(dk),
            "rrc": W.load_rrc_examples(tmp, W.make_rrc_squad(4, seed=3), vocab, max_len),
            "ae": W.load_bio_examples(tmp, W.make_bio_lines(4, seed=3), vocab, max_len),
            "asc": W.load_asc_examples(tmp, W.make_asc_lines(4, seed=3), vocab, max_len),
        }
    short, long = (sets[n] for n in TRIM_LENS)
    for kind in short:
        assert len(short[kind]) == len(long[kind]) == 4, kind
        for a, b in zip(short[kind], long[kind]):
            n = a.packed.end_index + 1
            assert n == b.packed.end_index + 1 and n < TRIM_LENS[0], kind
            assert np.array_equal(a.packed.ids[:n], b.packed.ids[:n]), kind
    config = preset_config("tiny", len(vocab), max_positions=TRIM_LENS[1], dropout_rate=0.0)
    return config, sets


def test_losses_and_gradients_do_not_depend_on_stored_length(packed_twice):
    config, sets = packed_twice
    losses = {"dk": T.dk_loss, "rrc": T.mrc_loss, "ae": T.tag_loss, "asc": T.asc_loss}
    for kind, loss_fn in losses.items():
        results = []
        for max_len in TRIM_LENS:
            params = init_parameters(config, seed=0, dtype=np.float64)
            params.zero_grads()
            loss = loss_fn(params, sets[max_len][kind], train_mode=True)
            loss.backward()
            results.append((loss.item(), {name: tensor.grad.copy() for name, tensor in params.items()}))
        (value_a, grads_a), (value_b, grads_b) = results
        np.testing.assert_allclose(value_b, value_a, rtol=1e-12, err_msg=kind)
        for name, grad in grads_a.items():
            np.testing.assert_allclose(grads_b[name], grad, rtol=1e-12, err_msg=f"{kind} {name}")


def test_predictions_do_not_depend_on_stored_length(packed_twice):
    config, sets = packed_twice
    params = init_parameters(config, seed=0)
    short, long = (sets[n] for n in TRIM_LENS)
    assert T.predict_rrc(params, short["rrc"]) == T.predict_rrc(params, long["rrc"])
    assert T.predict_ae(params, short["ae"]) == T.predict_ae(params, long["ae"])
    assert T.predict_asc(params, short["asc"]) == T.predict_asc(params, long["asc"])


WHOLE_MODEL_TOL = 1e-6


def test_whole_model_directional_derivative_matches_central_difference(world):
    """Every loss's backward agrees with a central difference along a random direction.

    Float64, dropout 0, weights perturbed off the init (biases and gains not at
    0 and 1), 3 examples per loss.  The relative error is
    ``|analytic - numeric| / max(|analytic|, |numeric|)``.
    """
    _, model_config, dk, mrc, tasks = world
    config = replace(model_config, dropout_rate=0.0)
    rng = np.random.default_rng(17)
    base = init_parameters(config, seed=0, dtype=np.float64).copy_data()
    base = {name: arr + rng.normal(0.0, 0.05, arr.shape) for name, arr in base.items()}
    direction = {name: rng.normal(0.0, 1.0, arr.shape) for name, arr in base.items()}
    batches = {
        "dk": (T.dk_loss, dk[:3]),
        "mrc": (T.mrc_loss, mrc[:3]),
        "tag": (T.tag_loss, tasks["ae"][0][:3]),
        "asc": (T.asc_loss, tasks["asc"][0][:3]),
    }
    eps = 1e-5

    def loss_at(loss_fn, batch, step):
        params = init_parameters(config, seed=0, dtype=np.float64)
        for name, t in params.items():
            t.data = base[name] + step * direction[name]
        return params, loss_fn(params, batch, train_mode=True)

    for kind, (loss_fn, batch) in batches.items():
        params, loss = loss_at(loss_fn, batch, 0.0)
        params.zero_grads()
        loss.backward()
        analytic = sum(float((t.grad * direction[name]).sum()) for name, t in params.items())
        numeric = (loss_at(loss_fn, batch, eps)[1].item() - loss_at(loss_fn, batch, -eps)[1].item()) / (2 * eps)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
        assert err < WHOLE_MODEL_TOL, f"{kind}: analytic {analytic!r}, numeric {numeric!r}, rel err {err:.2e}"
