import numpy as np
import pytest

from reviewpt import model as M
from reviewpt.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from reviewpt.model import init_parameters, preset_config

DIGEST = bytes(range(32))


@pytest.fixture
def ckpt(tmp_path):
    config = preset_config("tiny", vocab_size=20, max_positions=16)
    params = init_parameters(config, seed=5)
    save_checkpoint(tmp_path / "a.ckpt", params, DIGEST, 3, 5)
    return load_checkpoint(tmp_path / "a.ckpt", expect_vocab_digest=DIGEST), params


def test_restore_round_trips_every_blob(ckpt):
    loaded, params = ckpt
    restored = loaded.restore()
    for name, tensor in params.items():
        assert np.array_equal(restored[name].data, tensor.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_save_load_save_is_byte_identical(tmp_path, dtype):
    config = preset_config("tiny", vocab_size=20, max_positions=16)
    save_checkpoint(tmp_path / "a.ckpt", init_parameters(config, seed=5, dtype=dtype), DIGEST, 3, 5)
    loaded = load_checkpoint(tmp_path / "a.ckpt", expect_vocab_digest=DIGEST)
    assert all(blob.dtype == dtype for blob in loaded.blobs.values())
    save_checkpoint(tmp_path / "b.ckpt", loaded.restore(), loaded.vocab_digest, loaded.step, loaded.seed)
    assert (tmp_path / "b.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()


def test_restore_rejects_missing_blob(ckpt):
    loaded, _ = ckpt
    del loaded.blobs["cls.w"]
    with pytest.raises(CheckpointError, match="cls.w"):
        loaded.restore()
    empty = Checkpoint(loaded.config, loaded.seed, loaded.step, loaded.vocab_digest, blobs={})
    with pytest.raises(CheckpointError, match="missing"):
        empty.restore()


def test_restore_rejects_extra_blob(ckpt):
    loaded, _ = ckpt
    loaded.blobs["cls.extra"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(CheckpointError, match="cls.extra"):
        loaded.restore()


def test_restore_rejects_shapes_that_do_not_match_the_config(ckpt, tmp_path):
    blob = (tmp_path / "a.ckpt").read_bytes()
    assert blob.count(b'"hidden_size":64') == 1
    (tmp_path / "wide.ckpt").write_bytes(blob.replace(b'"hidden_size":64', b'"hidden_size":84'))
    wide = load_checkpoint(tmp_path / "wide.ckpt")
    with pytest.raises(CheckpointError, match="tok_emb"):
        wide.restore()
    loaded, _ = ckpt
    loaded.blobs["pair.w"] = loaded.blobs["pair.w"].reshape(-1, 2)
    with pytest.raises(CheckpointError, match="pair.w"):
        loaded.restore()


def test_restore_draws_no_random_numbers_and_copies_the_blobs(ckpt, monkeypatch):
    loaded, params = ckpt

    def refuse(*args, **kwargs):
        raise AssertionError("restore must not build random weights")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(M, "init_parameters", refuse)
    restored = loaded.restore()
    assert list(restored.tensors) == list(params.tensors)
    for name, tensor in restored.items():
        assert tensor.requires_grad
        assert not np.shares_memory(tensor.data, loaded.blobs[name])


def _cut_at(blob: bytes, where: str) -> int:
    """Bytes to keep so the file ends inside ``where``."""
    (hlen,) = np.frombuffer(blob[8:12], dtype="<u4")
    first_blob = 12 + int(hlen) + 32 + 8
    return {
        "version": 6,
        "header length": 10,
        "header": 12 + int(hlen) // 2,
        "digest": 12 + int(hlen) + 10,
        "step": 12 + int(hlen) + 36,
        "blob name": first_blob + 6,
        "blob payload": len(blob) - 100,
        "last byte": len(blob) - 1,
    }[where]


@pytest.mark.parametrize(
    "where", ["version", "header length", "header", "digest", "step", "blob name", "blob payload", "last byte"]
)
def test_truncated_checkpoint_raises_checkpoint_error(ckpt, tmp_path, where):
    blob = (tmp_path / "a.ckpt").read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: _cut_at(blob, where)])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(cut)


@pytest.mark.parametrize("where", ["header length", "header", "blob name"])
def test_flipped_byte_raises_checkpoint_error(ckpt, tmp_path, where):
    blob = bytearray((tmp_path / "a.ckpt").read_bytes())
    (hlen,) = np.frombuffer(blob[8:12], dtype="<u4")
    offset = {"header length": 8, "header": 14, "blob name": 12 + int(hlen) + 32 + 8 + 4}[where]
    blob[offset] ^= 0xFF
    bad = tmp_path / "flipped.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="header" if "header" in where else "blob name"):
        load_checkpoint(bad)
