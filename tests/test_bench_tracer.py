"""The benchmark's tracer must be able to wrap every name it lists.

The benchmark wraps package functions by name from outside the package, so
deleting or rebinding one of them breaks the benchmark; this fails first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from reviewpt import autograd as ag
from reviewpt import model as M
from reviewpt.model import init_parameters, preset_config

TRACER_PY = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tracer):
    names = [(mod, name) for mod, group in tracer.FUNCTIONS for name in group]
    names += [(M, "encode_batch"), (ag, "matmul")]
    before = {(mod.__name__, name): getattr(mod, name) for mod, name in names}
    backward = ag.Tensor.backward

    t = tracer.Tracer()
    t.install()
    try:
        for mod, name in names:
            assert getattr(mod, name) is not before[mod.__name__, name], f"{mod.__name__}.{name} not wrapped"
        config = preset_config("tiny", vocab_size=10, max_positions=8, dropout_rate=0.0)
        params = init_parameters(config, seed=0)
        ids = np.arange(8).reshape(1, 8) % 10
        hidden = M.encode_batch(params, config, ids, np.zeros_like(ids), np.ones_like(ids))
        M.tag_probs_batch(params, hidden)
        assert t.calls("setup", "model.tag_probs_batch") == 1
        assert t.calls("setup", "model.encode_batch") == 1
    finally:
        t.uninstall()

    for mod, name in names:
        assert getattr(mod, name) is before[mod.__name__, name], f"{mod.__name__}.{name} not restored"
    assert ag.Tensor.backward is backward
