from types import SimpleNamespace

import numpy as np
import pytest

from seqaug import numerics as nd
from seqaug.diffusion import condition_batch
from seqaug.numerics import Tensor, seed_stream
from seqaug.sunet import SUNet, SUNetConfig, sinusoidal_step_embedding


@pytest.fixture
def tiny_net():
    cfg = SUNetConfig(channels=2, embed_dim=16, levels=2, channel_mult=(1, 2),
                      base_width=8, res_blocks=2)
    return SUNet(cfg, num_items=12, rng=seed_stream(0, "tiny-sunet"))


# ---------------------------------------------------------------------------
# step embedding


def test_step_embedding_t0_is_zeros_then_ones():
    emb = sinusoidal_step_embedding(0, 8)
    np.testing.assert_array_equal(emb[:4], np.zeros(4))
    np.testing.assert_array_equal(emb[4:], np.ones(4))


def test_step_embedding_dim2_t1_direct_evaluation():
    emb = sinusoidal_step_embedding(1, 2)
    assert emb[0] == pytest.approx(np.sin(1.0), abs=1e-6)
    assert emb[1] == pytest.approx(np.cos(1.0), abs=1e-6)


def test_step_embedding_frequencies():
    dim = 8
    t = 37
    emb = sinusoidal_step_embedding(t, dim)
    for k in range(dim // 2):
        w = 10000.0 ** (-2.0 * k / dim)
        assert emb[k] == pytest.approx(np.sin(t * w), abs=1e-6)
        assert emb[dim // 2 + k] == pytest.approx(np.cos(t * w), abs=1e-6)


def test_step_embedding_distinct_steps_differ():
    e1 = sinusoidal_step_embedding(1, 16)
    e2 = sinusoidal_step_embedding(2, 16)
    assert np.linalg.norm(e1 - e2) > 0


def test_step_embedding_odd_dim_rejected():
    with pytest.raises(ValueError, match="even"):
        sinusoidal_step_embedding(1, 7)


# ---------------------------------------------------------------------------
# condition vector


def with_table(table):
    return SimpleNamespace(item_emb=Tensor(table))


def test_condition_batch_is_mean():
    c = condition_batch(with_table(np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])), [[1, 2]])
    np.testing.assert_allclose(c.data, [[2.0, 2.0]])


def test_condition_batch_single_item_identity():
    table = np.arange(8.0).reshape(4, 2)
    c = condition_batch(with_table(table), [[3]])
    np.testing.assert_array_equal(c.data, table[3:4])


def test_condition_batch_permutation_invariant(rng):
    model = with_table(rng.standard_normal((9, 4)))
    items = [2, 5, 5, 7, 1]
    c = condition_batch(model, [items, list(reversed(items))])
    np.testing.assert_allclose(c.data[0], c.data[1], atol=1e-15)


def test_condition_batch_rejects_empty():
    with pytest.raises(ValueError, match="padding"):
        condition_batch(with_table(np.zeros((3, 2))), [[]])


# ---------------------------------------------------------------------------
# network contract


def test_config_validation():
    with pytest.raises(ValueError, match="perfect square"):
        SUNetConfig(channels=2, embed_dim=15)
    with pytest.raises(ValueError, match="divisible"):
        SUNetConfig(channels=2, embed_dim=4, levels=3, channel_mult=(1, 1, 1), base_width=4)


def test_default_config_spatial_side_is_8():
    cfg = SUNetConfig(channels=6, embed_dim=64)
    assert cfg.side == 8


def test_output_shape_matches_input(tiny_net, rng):
    for b in (1, 3):
        x = rng.standard_normal((b, 2, 16))
        c = rng.standard_normal((b, 16))
        out = tiny_net.predict_noise(x, 5, c)
        assert out.shape == (b, 2, 16)


def test_reshape_inverse_is_identity(rng):
    x = rng.standard_normal((3, 4, 16))
    planes = x.reshape(3, 4, 4, 4).transpose(0, 2, 3, 1)
    back = planes.transpose(0, 3, 1, 2).reshape(3, 4, 16)
    np.testing.assert_array_equal(back, x)


def test_z_sensitivity_step_and_condition(tiny_net, rng):
    x = rng.standard_normal((2, 2, 16))
    c = rng.standard_normal((2, 16))
    base = tiny_net.predict_noise(x, 3, c).data
    other_t = tiny_net.predict_noise(x, 9, c).data
    other_c = tiny_net.predict_noise(x, 3, c + 0.5).data
    assert np.abs(base - other_t).max() > 1e-8
    assert np.abs(base - other_c).max() > 1e-8


def test_deterministic_forward(tiny_net, rng):
    x = rng.standard_normal((2, 2, 16))
    c = rng.standard_normal((2, 16))
    a = tiny_net.predict_noise(x, 4, c).data
    b = tiny_net.predict_noise(x, 4, c).data
    np.testing.assert_array_equal(a, b)


def test_full_finite_difference_check_tiny_config(tiny_net, rng):
    x = Tensor(rng.standard_normal((2, 2, 16)), requires_grad=True)
    c = Tensor(rng.standard_normal((2, 16)), requires_grad=True)
    params = list(tiny_net.parameters().values()) + [x, c]

    def loss_fn():
        out = tiny_net.predict_noise(x, 5, c)
        return nd.mean(nd.mul(out, out))

    err = nd.finite_difference_check(loss_fn, params, n_coords=64, step=1e-5, rng=rng)
    assert err < 1e-3


def test_all_parameters_receive_gradient(tiny_net, rng):
    # drive the full training path so the embedding table participates too
    from seqaug.diffusion import loss_given_draws
    from seqaug.schedule import make_schedule
    sched = make_schedule("linear", 10, 0.05, 0.3)
    aug_ids = rng.integers(1, 13, size=(3, 2))
    raws = [[1, 2], [3], [4, 5, 6]]
    t = rng.integers(1, 11, size=3)
    eps = rng.standard_normal((3, 2, 16))
    loss = loss_given_draws(tiny_net, aug_ids, raws, sched, t, eps,
                            uncond_mask=np.array([False, True, False]))
    nd.backward(loss)
    for name, p in tiny_net.parameters().items():
        assert p.grad is not None, f"{name} got no gradient"
        assert np.any(p.grad != 0), f"{name} gradient is identically zero"


def test_shape_error_on_wrong_input(tiny_net, rng):
    with pytest.raises(nd.ShapeError):
        tiny_net.predict_noise(rng.standard_normal((2, 3, 16)), 1, rng.standard_normal((2, 16)))


def test_checkpoint_roundtrip_reproduces_forward(tiny_net, tmp_path, rng):
    x = rng.standard_normal((2, 2, 16))
    c = rng.standard_normal((2, 16))
    before = tiny_net.predict_noise(x, 5, c).data.copy()
    path = tmp_path / "sunet.ckpt"
    tiny_net.save(path, meta={"kind": "sunet"})
    other = SUNet(tiny_net.config, tiny_net.num_items, seed_stream(99, "other"))
    meta = other.load(path)
    assert meta["kind"] == "sunet"
    np.testing.assert_array_equal(other.predict_noise(x, 5, c).data, before)
