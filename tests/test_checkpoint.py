import numpy as np
import pytest

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
