import numpy as np
import pytest

from seqaug import numerics as nd
from seqaug.numerics import Adam, Tensor


def scalar(x):
    return float(x.data)


# ---------------------------------------------------------------------------
# forward-op definitions


def test_matmul_identity():
    a = np.random.default_rng(0).standard_normal((3, 5))
    out = nd.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(nd.ShapeError, match=r"\(3, 4\).*\(5, 2\)"):
        nd.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))


def test_conv2d_all_ones_center():
    # 3x3 all-ones input, all-ones 3x3 kernel, padding 1: center sees all 9 taps
    x = Tensor(np.ones((1, 3, 3, 1)))
    w = Tensor(np.ones((3, 3, 1, 1)))
    out = nd.conv2d(x, w, padding=1).data[0, :, :, 0]
    assert out[1, 1] == 9.0
    np.testing.assert_array_equal(out, [[4, 6, 4], [6, 9, 6], [4, 6, 4]])


def test_conv2d_matches_direct_convolution_oracle(rng):
    b, h, w, c, o, k, s, p = 2, 6, 5, 3, 4, 3, 2, 1
    x = rng.standard_normal((b, h, w, c))
    kern = rng.standard_normal((k, k, c, o))
    bias = rng.standard_normal(o)
    out = nd.conv2d(Tensor(x), Tensor(kern), Tensor(bias), stride=s, padding=p).data
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    ref = np.zeros((b, oh, ow, o))
    for bi in range(b):
        for i in range(oh):
            for j in range(ow):
                patch = xp[bi, i * s:i * s + k, j * s:j * s + k, :]
                ref[bi, i, j] = np.tensordot(patch, kern, axes=3) + bias
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_softmax_symmetry():
    out = nd.softmax(Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_upsample_then_shapes():
    x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
    up = nd.upsample_nearest2d(x, 2)
    assert up.shape == (1, 4, 4, 2)
    assert up.data[0, 0, 0, 0] == up.data[0, 1, 1, 0] == x.data[0, 0, 0, 0]


def test_dropout_rate_zero_and_eval_deterministic(rng):
    x = Tensor(rng.standard_normal((4, 4)))
    out0 = nd.dropout(x, 0.0, True, rng)
    out1 = nd.dropout(x, 0.5, False, rng)
    np.testing.assert_array_equal(out0.data, x.data)
    np.testing.assert_array_equal(out1.data, x.data)


def test_embedding_rejects_float_ids():
    with pytest.raises(nd.ShapeError, match="integers"):
        nd.embedding(Tensor(np.zeros((3, 2))), np.array([0.5]))


# ---------------------------------------------------------------------------
# backward


def test_backward_simple_square():
    x = Tensor(3.0, requires_grad=True)
    y = nd.mul(x, x)
    nd.backward(y)
    assert x.grad == pytest.approx(6.0)


def test_backward_mean_gradient_is_one_over_n():
    x = Tensor(np.arange(5.0), requires_grad=True)
    nd.backward(nd.mean(x))
    np.testing.assert_allclose(x.grad, np.full(5, 0.2))


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(nd.NonScalarLossError):
        nd.backward(nd.mul(x, 2.0))


def test_backward_linearity_of_sum_of_losses(rng):
    x = Tensor(rng.standard_normal(6), requires_grad=True)

    def loss_a():
        return nd.sum_(nd.mul(x, x))

    def loss_b():
        return nd.mean(nd.silu(x))

    nd.backward(nd.add(loss_a(), loss_b()))
    combined = x.grad.copy()
    x.grad = None
    nd.backward(loss_a())
    ga = x.grad.copy()
    x.grad = None
    nd.backward(loss_b())
    gb = x.grad.copy()
    np.testing.assert_allclose(combined, ga + gb, rtol=1e-12)


def test_three_layer_perceptron_matches_finite_differences(rng):
    sizes = [(7, 9), (9, 5), (5, 1)]
    params = []
    for din, dout in sizes:
        params.append(Tensor(rng.standard_normal((din, dout)), requires_grad=True))
        params.append(Tensor(rng.standard_normal(dout), requires_grad=True))
    x_in = rng.standard_normal((4, 7))

    def loss_fn():
        h = Tensor(x_in)
        for i in range(0, 6, 2):
            h = nd.add(nd.matmul(h, params[i]), params[i + 1])
            if i < 4:
                h = nd.silu(h)
        return nd.mean(nd.mul(h, h))

    err = nd.finite_difference_check(loss_fn, params, n_coords=64, step=1e-5, rng=rng)
    assert err < 1e-4


@pytest.mark.parametrize("op_name", [
    "add", "mul", "div", "matmul", "softmax", "layer_norm", "silu", "relu_off_kink",
    "sigmoid", "softplus", "exp", "log", "sqrt", "mean_axis", "sum_keepdims",
    "reshape", "transpose", "concat", "take", "embedding", "conv", "conv_strided",
    "upsample", "attention", "power",
])
def test_every_op_passes_randomized_fd(op_name, rng):
    a = Tensor(rng.standard_normal((3, 4)) + 2.5, requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)) + 2.5, requires_grad=True)
    gain = Tensor(rng.standard_normal(4), requires_grad=True)
    bias = Tensor(rng.standard_normal(4), requires_grad=True)
    img = Tensor(rng.standard_normal((2, 4, 4, 3)), requires_grad=True)
    kern = Tensor(rng.standard_normal((3, 3, 3, 2)), requires_grad=True)
    table = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    q = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
    ids = rng.integers(0, 6, size=(2, 3))

    builders = {
        "add": (lambda: nd.add(a, b), [a, b]),
        "mul": (lambda: nd.mul(a, b), [a, b]),
        "div": (lambda: nd.div(a, b), [a, b]),
        "matmul": (lambda: nd.matmul(a, nd.transpose(b, (1, 0))), [a, b]),
        "softmax": (lambda: nd.softmax(a, axis=-1), [a]),
        "layer_norm": (lambda: nd.layer_norm(a, gain, bias), [a, gain, bias]),
        "silu": (lambda: nd.silu(a), [a]),
        "relu_off_kink": (lambda: nd.relu(a), [a]),
        "sigmoid": (lambda: nd.sigmoid(a), [a]),
        "softplus": (lambda: nd.softplus(a), [a]),
        "exp": (lambda: nd.exp(a), [a]),
        "log": (lambda: nd.log(nd.add(nd.mul(a, a), 1.0)), [a]),
        "sqrt": (lambda: nd.sqrt(nd.add(nd.mul(a, a), 1.0)), [a]),
        "mean_axis": (lambda: nd.mean(a, axis=1), [a]),
        "sum_keepdims": (lambda: nd.sum_(a, axis=0, keepdims=True), [a]),
        "reshape": (lambda: nd.reshape(a, (4, 3)), [a]),
        "transpose": (lambda: nd.transpose(a, (1, 0)), [a]),
        "concat": (lambda: nd.concat([a, b], axis=1), [a, b]),
        "take": (lambda: nd.take(a, (slice(None), 2)), [a]),
        "embedding": (lambda: nd.embedding(table, ids), [table]),
        "conv": (lambda: nd.conv2d(img, kern, padding=1), [img, kern]),
        "conv_strided": (lambda: nd.conv2d(img, kern, stride=2, padding=1), [img, kern]),
        "upsample": (lambda: nd.upsample_nearest2d(img, 2), [img]),
        "attention": (lambda: nd.scaled_dot_attention(q, q, q), [q]),
        "power": (lambda: nd.power(a, 3.0), [a]),
    }
    build, tensors = builders[op_name]

    def loss_fn():
        out = build()
        return nd.mean(nd.mul(out, out))

    err = nd.finite_difference_check(loss_fn, tensors, n_coords=24, step=1e-5, rng=rng)
    assert err < 1e-4, f"{op_name}: fd mismatch {err}"


def test_backward_visits_shared_subgraph_once(rng):
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    shared = nd.mul(x, 3.0)
    loss = nd.sum_(nd.add(shared, shared))
    nd.backward(loss)
    np.testing.assert_allclose(x.grad, np.full(4, 6.0))


def test_input_gradient_available_for_non_parameter_leaves(rng):
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)))
    nd.backward(nd.sum_(nd.matmul(x, w)))
    assert x.grad is not None and w.grad is None


def test_backward_keeps_leaf_gradients_and_drops_intermediate_ones(rng):
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    shared = nd.mul(x, 3.0)
    loss = nd.sum_(nd.add(shared, shared))
    nd.backward(loss)
    assert shared.grad is None and loss.grad is None
    first = x.grad.copy()
    # no intermediate gradient is left over to leak into a second sweep
    x.grad = None
    nd.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_leaves_parameters_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_matches_scalar_hand_roll():
    # one step with g=1: m_hat = 1, v_hat = 1 -> delta = -lr / (1 + eps)
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    p.grad = np.ones(1)
    opt.step()
    expected = 0.5 - 1e-3 * 1.0 / (1.0 + 1e-8)
    assert p.data[0] == pytest.approx(expected, abs=1e-12)


def test_adam_decreases_convex_quadratic():
    p = Tensor(np.array([3.0]), requires_grad=True)
    opt = Adam([p], lr=0.05)
    losses = []
    for _ in range(2):
        loss = nd.mul(nd.as_tensor(p), p)
        p.grad = None
        nd.backward(nd.sum_(loss))
        opt.step()
        losses.append(float(p.data[0]) ** 2)
    assert losses[1] < losses[0] < 9.0


def test_adam_shape_mismatch_raises():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros(3)
    with pytest.raises(nd.ShapeError):
        opt.step()


# ---------------------------------------------------------------------------
# checkpoint round trip


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    arrays = {
        "a.w": rng.standard_normal((3, 4)).astype(np.float32),
        "b.bias": rng.standard_normal(7),
        "emb": rng.standard_normal((5, 2)),
    }
    path = tmp_path / "model.ckpt"
    nd.save_checkpoint(path, arrays, meta={"note": "x", "n": 3})
    loaded, meta = nd.load_checkpoint(path)
    assert meta == {"note": "x", "n": 3}
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        np.testing.assert_array_equal(loaded[name], arrays[name])


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="magic"):
        nd.load_checkpoint(path)


# ---------------------------------------------------------------------------
# rng streams


def test_seed_stream_deterministic_and_distinct():
    a1 = nd.seed_stream(7, "x", 1).standard_normal(4)
    a2 = nd.seed_stream(7, "x", 1).standard_normal(4)
    b = nd.seed_stream(7, "x", 2).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_finite_checks_flag_catches_nan():
    nd.set_finite_checks(True)
    try:
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            nd.log(Tensor(np.array([-1.0])))
    finally:
        nd.set_finite_checks(False)
