import hashlib

import numpy as np
import pytest

from reviewpt import model as M
from reviewpt import tokenizer as tok
from reviewpt.data import span_valid_mask
from reviewpt.model import ModelConfig, init_parameters, preset_config
from reviewpt.tokenizer import SPECIALS, Vocabulary, encode, pack_pair

VOCAB = Vocabulary(list(SPECIALS) + ["aa", "bb", "cc", "dd", "ee", "ff", "gg"])


def make_packed(left="aa bb", right="cc dd ee ff", max_len=16):
    return pack_pair(encode(VOCAB, left), encode(VOCAB, right), max_len)


def encode_packs(params, config, *packs, **kwargs):
    """Hidden states [B, L, H] of equal-length packed inputs."""
    return M.encode_batch(
        params,
        config,
        np.stack([p.ids for p in packs]),
        np.stack([p.segments for p in packs]),
        np.stack([p.pad_mask for p in packs]),
        **kwargs,
    )


@pytest.fixture(scope="module")
def setup():
    config = preset_config("tiny", vocab_size=len(VOCAB), dropout_rate=0.0)
    params = init_parameters(config, seed=11)
    return config, params


def test_config_presets_match_documented_sizes():
    assert M.PRESETS["base"] == dict(num_layers=12, hidden_size=768, num_heads=12, feedforward_size=3072)
    assert M.PRESETS["tiny"]["hidden_size"] == 64
    cfg = preset_config("small", vocab_size=100)
    assert cfg.max_positions >= 320


def test_init_parameters_follows_the_layout():
    config = preset_config("tiny", vocab_size=len(VOCAB), max_positions=32)
    layout = M.parameter_layout(config)
    params = init_parameters(config, seed=0)
    assert [(name, t.shape) for name, t in params.items()] == [(name, shape) for name, (shape, _) in layout.items()]
    for name, (_, init) in layout.items():
        data = params[name].data
        if init == "normal":
            assert 0.01 < data.std() < 0.03, name
        else:
            assert np.all(data == (0.0 if init == "zeros" else 1.0)), name


@pytest.mark.parametrize("preset, prefix", [("tiny", "6e0837dcb5573a6e"), ("small", "b17adb4f84a3e85c")])
def test_initial_draws_are_pinned(preset, prefix):
    params = init_parameters(preset_config(preset, vocab_size=400, max_positions=320), seed=0)
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode("utf-8"))
        h.update(t.data.tobytes())
    assert h.hexdigest()[:16] == prefix


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(num_layers=1, hidden_size=10, num_heads=3, feedforward_size=16, vocab_size=10)


def test_forward_shape_contract(setup):
    config, params = setup
    p = make_packed()
    hidden = encode_packs(params, config, p)
    assert hidden.shape == (1, len(p.ids), config.hidden_size)
    assert M.cls_hidden_batch(hidden).shape == (1, config.hidden_size)


def test_forward_deterministic_without_dropout(setup):
    config, params = setup
    p = make_packed()
    a = encode_packs(params, config, p).data
    b = encode_packs(params, config, p).data
    assert np.array_equal(a, b)


def test_forward_oversize_input_errors(setup):
    config, params = setup
    small = ModelConfig(
        num_layers=1, hidden_size=64, num_heads=2, feedforward_size=64,
        vocab_size=len(VOCAB), max_positions=8, dropout_rate=0.0,
    )
    p = make_packed(max_len=16)
    with pytest.raises(ValueError, match="max_positions"):
        encode_packs(params, small, p)


def test_padding_does_not_change_real_columns(setup):
    config, params = setup
    short = make_packed(max_len=12)
    long = make_packed(max_len=24)
    h_short = encode_packs(params, config, short).data[0]
    h_long = encode_packs(params, config, long).data[0]
    n = short.end_index + 1
    np.testing.assert_allclose(h_short[:n], h_long[:n], atol=1e-5)


def test_span_logits_respect_mask(setup):
    config, params = setup
    p = make_packed()
    hidden = encode_packs(params, config, p)
    l1, l2 = M.span_probs_batch(params, hidden, span_valid_mask(p)[None])
    for l in (l1.data[0], l2.data[0]):
        assert abs(l.sum() - 1.0) < 1e-6
        assert l[: p.sep_index + 1].max() < 1e-6  # question side forced to ~0
        assert l[p.end_index :].max() < 1e-6  # final [SEP] and pads too


def test_span_logits_single_valid_position(setup):
    config, params = setup
    p = make_packed()
    hidden = encode_packs(params, config, p)
    mask = np.zeros(len(p.ids), dtype=bool)
    mask[p.doc_start] = True
    l1, l2 = M.span_probs_batch(params, hidden, mask[None])
    assert l1.data[0, p.doc_start] > 1 - 1e-6
    assert l2.data[0, p.doc_start] > 1 - 1e-6


def test_span_logits_empty_region_errors(setup):
    config, params = setup
    p = make_packed()
    hidden = encode_packs(params, config, p)
    with pytest.raises(ValueError, match="empty valid region"):
        M.span_logits(params, hidden, np.zeros((1, len(p.ids)), dtype=bool))
    # one empty row in a batch is enough
    pair = encode_packs(params, config, p, p)
    valid = np.stack([span_valid_mask(p), np.zeros(len(p.ids), dtype=bool)])
    with pytest.raises(ValueError, match="empty valid region"):
        M.span_logits(params, pair, valid)


def test_tag_logits_shape_and_column_sums(setup):
    config, params = setup
    p = make_packed()
    hidden = encode_packs(params, config, p)
    l3 = M.tag_probs_batch(params, hidden)
    assert l3.shape == (1, len(p.ids), 3)
    np.testing.assert_allclose(l3.data.sum(axis=-1), 1.0, atol=1e-6)


def test_tag_logits_zero_head_uniform(setup):
    config, _ = setup
    params = init_parameters(config, seed=3)
    params["tag.w"].data[:] = 0.0
    params["tag.b"].data[:] = 0.0
    hidden = encode_packs(params, config, make_packed())
    np.testing.assert_allclose(M.tag_probs_batch(params, hidden).data, 1.0 / 3.0, atol=1e-6)


def test_class_logits_distribution_and_zero_head(setup):
    config, params = setup
    hidden = encode_packs(params, config, make_packed())
    l4 = M.class_probs_batch(params, hidden)
    assert l4.shape == (1, 3)
    assert abs(l4.data.sum() - 1.0) < 1e-6
    zeroed = init_parameters(config, seed=3)
    zeroed["cls.w"].data[:] = 0.0
    zeroed["cls.b"].data[:] = 0.0
    hidden2 = encode_packs(zeroed, config, make_packed())
    np.testing.assert_allclose(M.class_probs_batch(zeroed, hidden2).data, [[1 / 3] * 3], atol=1e-6)


def test_class_logits_sensitive_to_document_order(setup):
    config, params = setup
    a = make_packed(right="cc dd ee")
    b = make_packed(right="ee dd cc")
    la = M.class_logits(params, encode_packs(params, config, a)).data
    lb = M.class_logits(params, encode_packs(params, config, b)).data
    assert not np.allclose(la, lb)


def test_pair_logits_zero_head_is_even(setup):
    config, _ = setup
    params = init_parameters(config, seed=3)
    params["pair.w"].data[:] = 0.0
    params["pair.b"].data[:] = 0.0
    hidden = encode_packs(params, config, make_packed())
    np.testing.assert_allclose(M.pair_probs_batch(params, hidden).data, [[0.5, 0.5]], atol=1e-6)


def test_mlm_logits_rows_and_empty(setup):
    config, params = setup
    p = make_packed()
    hidden = encode_packs(params, config, p)
    probs = M.mlm_probs_flat(params, hidden, [p.doc_start, p.doc_start + 1])
    assert probs.shape == (2, config.vocab_size)
    np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-6)
    empty = M.mlm_probs_flat(params, hidden, [])
    assert empty.shape == (0, config.vocab_size)


def test_gradient_reaches_token_embeddings_from_every_head(setup):
    config, _ = setup
    p = make_packed()
    from reviewpt.autograd import cross_entropy, reshape

    def embedding_grad(head_loss_builder):
        params = init_parameters(config, seed=9)
        hidden = encode_packs(params, config, p)
        loss = head_loss_builder(params, hidden)
        loss.backward()
        return np.abs(params["tok_emb"].grad).sum()

    builders = [
        lambda pr, h: cross_entropy(M.mlm_probs_flat(pr, h, [p.doc_start]), np.array([5])),
        lambda pr, h: cross_entropy(M.pair_probs_batch(pr, h), np.array([0])),
        lambda pr, h: cross_entropy(M.class_probs_batch(pr, h), np.array([1])),
        lambda pr, h: cross_entropy(
            M.span_probs_batch(pr, h, span_valid_mask(p)[None])[0], np.array([p.doc_start])
        ),
        lambda pr, h: cross_entropy(
            reshape(M.tag_probs_batch(pr, h), (len(p.ids), 3)), np.array([0] * len(p.ids))
        ),
    ]
    for build in builders:
        assert embedding_grad(build) > 0.0


def test_batched_heads_match_per_example(setup):
    """Row i of a batch of B equals a batch of one, for every head: training
    runs many examples per batch and inference runs one."""
    config, params = setup
    packs = [make_packed(), make_packed(left="bb", right="ff gg aa"), make_packed(right="ee")]
    valid = np.stack([span_valid_mask(p) for p in packs])

    def heads(hidden, valid):
        length = hidden.shape[1]
        return {
            "cls_hidden_batch": M.cls_hidden_batch(hidden),
            "span_logits": M.span_logits(params, hidden, valid),
            "span_probs_batch": M.span_probs_batch(params, hidden, valid),
            "tag_logits": M.tag_logits(params, hidden),
            "tag_probs_batch": M.tag_probs_batch(params, hidden),
            "class_logits": M.class_logits(params, hidden),
            "class_probs_batch": M.class_probs_batch(params, hidden),
            "pair_probs_batch": M.pair_probs_batch(params, hidden),
            # positions 1 and 2 of every row, flattened
            "mlm_probs_flat": M.mlm_probs_flat(
                params, hidden, [b * length + j for b in range(hidden.shape[0]) for j in (1, 2)]
            ),
        }

    def rows(out, i):
        if isinstance(out, tuple):
            return [o.data[i] for o in out]
        return [out.data[i]]

    batched = heads(encode_packs(params, config, *packs), valid)
    for i, p in enumerate(packs):
        single = heads(encode_packs(params, config, p), valid[i : i + 1])
        for name, out in single.items():
            if name == "mlm_probs_flat":
                got, want = batched[name].data[2 * i : 2 * i + 2], out.data
                np.testing.assert_allclose(got, want, atol=1e-6, err_msg=name)
                continue
            for got, want in zip(rows(batched[name], i), rows(out, 0)):
                np.testing.assert_allclose(got, want, atol=1e-6, err_msg=name)


def test_dropout_changes_training_forward(setup):
    config, _ = setup
    cfg = preset_config("tiny", vocab_size=len(VOCAB), dropout_rate=0.3)
    params = init_parameters(cfg, seed=4)
    p = make_packed()
    a = encode_packs(params, cfg, p, train_mode=True, rng=np.random.default_rng(1)).data
    b = encode_packs(params, cfg, p, train_mode=True, rng=np.random.default_rng(2)).data
    c = encode_packs(params, cfg, p, train_mode=False).data
    d = encode_packs(params, cfg, p, train_mode=False).data
    assert not np.allclose(a, b)
    assert np.array_equal(c, d)


def test_training_dropout_without_rng_raises():
    cfg = preset_config("tiny", vocab_size=len(VOCAB), dropout_rate=0.1)
    params = init_parameters(cfg, seed=4)
    with pytest.raises(ValueError, match="rng"):
        encode_packs(params, cfg, make_packed(), train_mode=True)
