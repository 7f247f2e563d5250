"""In float32 mode every graph node, every gradient and every sampled array
is float32: no Python scalar or constant widens the computation."""

import numpy as np
import pytest

from seqaug import diffusion, srs
from seqaug import numerics as nd
from seqaug.config import RunConfig
from seqaug.numerics import Tensor, seed_stream
from seqaug.schedule import make_schedule
from seqaug.srs import SrsModel
from seqaug.sunet import SUNet, SUNetConfig

F32 = np.dtype(np.float32)
real_backward = nd.backward


@pytest.mark.parametrize("mode", ["float32", "float64"])
def test_python_scalars_take_the_default_dtype(mode):
    with nd.precision(mode):
        for x in (0.5, -1, float(np.sqrt(16.0)), np.float64(2.0), True):
            assert Tensor(x).dtype == np.dtype(mode)
        assert nd.as_tensor(3.0).dtype == np.dtype(mode)
        assert Tensor(np.ones(2, dtype=np.float32)).dtype == F32


def walked_backward(loss, seen):
    """nd.backward after checking every node is float32 and recording the
    dtype of every gradient handed to a node's ``_backward``."""
    nodes = nd.toposort(loss)
    wrong = sorted({n.op for n in nodes if n.dtype != F32})
    assert not wrong, f"float64 nodes from ops {wrong}"
    for node in nodes:
        if node._backward is not None:
            def recording(g, inner=node._backward, op=node.op):
                seen.append((op, g.dtype))
                inner(g)
            node._backward = recording
    real_backward(loss)


def sunet():
    cfg = SUNetConfig(channels=3, embed_dim=16, base_width=8, levels=2, channel_mult=(1, 2))
    return SUNet(cfg, 20, seed_stream(5, "sunet"))


def recommender():
    return SrsModel(RunConfig(srs_embed_dim=8, srs_blocks=2, srs_max_len=6, srs_dropout=0.3),
                    20, seed_stream(5, "srs"))


def diffusion_loss():
    rng = np.random.default_rng(0)
    sched = make_schedule("linear", 8, 0.02, 0.3)
    raws = [[1, 2, 3], [4, 5], [6], [7, 8, 9, 10]] * 2
    return diffusion.training_loss(sunet(), rng.integers(1, 21, size=(8, 3)), raws, sched,
                                   rng, p_uncond=0.5)


def recommender_loss():
    batch = [([1, 2], 3, [4]), ([5], 6, [7]), ([8, 9, 10, 11, 12, 13, 14], 15, [16])]
    return srs._batch_loss(recommender(), batch, train=True, rng=np.random.default_rng(1))


@pytest.mark.parametrize("build", [diffusion_loss, recommender_loss])
def test_float32_training_graph_and_gradients_stay_float32(build):
    seen = []
    with nd.precision("float32"):
        loss = build()
        walked_backward(loss, seen)
    assert seen
    wrong = sorted({op for op, dtype in seen if dtype != F32})
    assert not wrong, f"float64 gradients into ops {wrong}"


def test_float32_scorer_input_gradient_stays_float32(monkeypatch):
    seen = []
    monkeypatch.setattr(nd, "backward", lambda loss: walked_backward(loss, seen))
    with nd.precision("float32"):
        x_t = np.random.default_rng(2).standard_normal((2, 3, 8)).astype(np.float32)
        grad = diffusion.scorer_input_gradient(recommender(), x_t, [1, 2])
    assert grad.dtype == F32
    assert seen and all(dtype == F32 for _, dtype in seen)


def test_float32_sampling_stays_float32():
    with nd.precision("float32"):
        model = sunet()
        sched = make_schedule("linear", 4, 0.02, 0.3)
        x_t = np.random.default_rng(3).standard_normal((2, 3, 16)).astype(np.float32)
        c = np.zeros((2, 16), dtype=np.float32)
        with nd.no_grad():
            assert model.predict_noise(x_t, 3, c).dtype == F32
        assert diffusion.sample(model, [[1, 2], [3]], 3, 1.0, sched, seed=1).dtype == F32
