import os
from collections import Counter

import numpy as np
import pytest

from seqaug import numerics as nd
from seqaug.config import load_config
from seqaug.numerics import Adam, Tensor, conv
from seqaug.numerics import tensor as tensor_mod
from seqaug.sunet import SUNet


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
    out = nd.conv2d(x, w, np.zeros(1), padding=1).data[0, :, :, 0]
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


def _conv_geometries():
    for h, w in ((4, 4), (2, 2), (5, 3), (8, 8)):
        for k in (1, 3):
            for s in (1, 2):
                for p in (0, 1):
                    if h + 2 * p >= k and w + 2 * p >= k:
                        yield h, w, k, s, p


@pytest.mark.parametrize("h, w, k, s, p", list(_conv_geometries()))
def test_conv2d_gradients_match_direct_loop_oracle(h, w, k, s, p, rng):
    b, c, o = 2, 3, 4
    x = Tensor(rng.standard_normal((b, h, w, c)), requires_grad=True)
    kern = Tensor(rng.standard_normal((k, k, c, o)), requires_grad=True)
    bias = Tensor(rng.standard_normal(o), requires_grad=True)
    out = nd.conv2d(x, kern, bias, stride=s, padding=p)
    g = rng.standard_normal(out.shape)
    nd.backward(nd.sum_(nd.mul(out, Tensor(g))))

    xp = np.pad(x.data, ((0, 0), (p, p), (p, p), (0, 0)))
    dxp, dw = np.zeros_like(xp), np.zeros_like(kern.data)
    for bi in range(b):
        for i in range(out.shape[1]):
            for j in range(out.shape[2]):
                window = (bi, slice(i * s, i * s + k), slice(j * s, j * s + k))
                dxp[window] += kern.data @ g[bi, i, j]
                dw += xp[window][..., None] * g[bi, i, j]
    np.testing.assert_allclose(x.grad, dxp[:, p:p + h, p:p + w], rtol=0, atol=1e-12)
    np.testing.assert_allclose(kern.grad, dw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bias.grad, g.sum(axis=(0, 1, 2)), rtol=0, atol=1e-12)


def _lowering(h, w, k, s, p):
    return conv._plan(h, w, k, k, s, p)[0]


def test_oracle_geometries_exercise_both_lowerings():
    lowerings = Counter(_lowering(*geometry) for geometry in _conv_geometries())
    assert lowerings["dense"] > 0 and lowerings["gather"] > 0


def test_conv2d_lowering_of_each_sunet_geometry(monkeypatch):
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "synth.cfg"))
    net = SUNet(cfg.sunet_config(), cfg.synth_items, nd.seed_stream(0))
    plan, seen = conv._plan, []

    def spy(*geometry):
        found = plan(*geometry)
        seen.append((geometry, found[0]))
        return found

    monkeypatch.setattr(conv, "_plan", spy)
    with nd.no_grad():
        net.predict_noise(np.zeros((2, cfg.M, cfg.embed_dim)), 1, np.zeros((2, cfg.embed_dim)))
    monkeypatch.undo()
    # (h, w, kh, kw, stride, padding): 14 of synth's 17 convs go dense, its 1x1 skips gather
    assert Counter(seen) == {
        ((4, 4, 3, 3, 1, 1), "dense"): 7,
        ((4, 4, 3, 3, 2, 1), "dense"): 1,
        ((2, 2, 3, 3, 1, 1), "dense"): 6,
        ((2, 2, 1, 1, 1, 0), "gather"): 2,
        ((4, 4, 1, 1, 1, 0), "gather"): 1,
    }
    # paper-scale's 8x8 planes and their downsample keep the gather path
    assert _lowering(8, 8, 3, 1, 1) == _lowering(8, 8, 3, 2, 1) == "gather"


def test_identity_gather_is_the_input_itself(rng):
    """A 1x1 conv with stride 1 and no padding stores no tables; its im2col matrix
    equals the generic gather through an identity table, byte for byte."""
    assert conv._plan(4, 4, 1, 1, 1, 0) == ("gather", None, None)
    a = rng.standard_normal((3, 16, 5))
    np.testing.assert_array_equal(conv._gather(a, None), conv._gather(a, np.arange(16)[:, None]))
    strided = a[:, :, ::2]
    assert conv._gather(strided, None).flags.c_contiguous


# (h, w, k, stride, padding) of each lowering
LOWERINGS = {"dense": (4, 4, 3, 1, 1), "gather": (8, 8, 3, 1, 1), "identity": (4, 4, 1, 1, 0)}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("lowering", LOWERINGS)
def test_conv2d_frozen_no_grad_forward_is_the_graph_forward(lowering, dtype, rng):
    h, w, k, s, p = LOWERINGS[lowering]
    with nd.precision(dtype):
        x = nd.Tensor(rng.standard_normal((3, h, w, 5)).astype(dtype))
        kern = nd.param(rng.standard_normal((k, k, 5, 7)))
        bias = nd.param(rng.standard_normal(7))
        graph = nd.conv2d(x, kern, bias, stride=s, padding=p)
        assert graph.requires_grad
        with nd.no_grad(), nd.frozen_weights():
            first = nd.conv2d(x, kern, bias, stride=s, padding=p)
            again = nd.conv2d(x, kern, bias, stride=s, padding=p)
    assert first.data.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(first.data, graph.data)
    np.testing.assert_array_equal(again.data, graph.data)


def test_frozen_weights_builds_each_dense_matrix_once_and_drops_it_on_exit(rng):
    x = rng.standard_normal((2, 4, 4, 3))
    kern = nd.param(rng.standard_normal((3, 3, 3, 4)))
    zero = np.zeros(4, dtype=kern.dtype)
    built = []
    with nd.frozen_weights():
        nd.conv2d(x, kern, zero, padding=1)
        assert conv._FROZEN == {}  # grad enabled: no matrix is kept
        with nd.no_grad():
            for _ in range(3):
                nd.conv2d(x, kern, zero, padding=1)
                built.append(next(iter(conv._FROZEN.values()))[1])
            nd.conv2d(x[:, :2, :2], kern, zero, padding=1)  # another geometry, another matrix
        assert len(conv._FROZEN) == 2
    assert conv._FROZEN is None
    assert built[0] is built[1] is built[2]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_layer_norm_and_silu_without_a_graph_match_the_graph_path(dtype, rng):
    with nd.precision(dtype):
        x = nd.param(rng.standard_normal((3, 4, 4, 6)) * 2.0 + 0.5)
        gain = nd.param(rng.standard_normal(6))
        bias = nd.param(rng.standard_normal(6))
        graph_norm = nd.layer_norm(x, gain, bias)
        graph_silu = nd.silu(x)
        assert graph_norm.requires_grad and graph_silu.requires_grad
        with nd.no_grad():
            norm, act = nd.layer_norm(x, gain, bias), nd.silu(x)
        # with grad on but no operand needing one, no graph is built either
        plain = nd.Tensor(x.data.copy())
        plain_norm = nd.layer_norm(plain, gain.data, bias.data)
    for out in (norm, plain_norm):
        assert out.data.dtype == np.dtype(dtype) and out._backward is None
        np.testing.assert_array_equal(out.data, graph_norm.data)
    assert act._backward is None
    np.testing.assert_array_equal(act.data, graph_silu.data)
    np.testing.assert_array_equal(nd.silu(plain).data, graph_silu.data)
    np.testing.assert_array_equal(plain.data, x.data)


@pytest.mark.parametrize("shape", [(2, 3, 3, 5), (2, 4, 6)], ids=["sunet_bhwc", "srs_bld"])
def test_layer_norm_matches_textbook_formula(shape, rng):
    n = shape[-1]
    x = Tensor(rng.standard_normal(shape) * 3.0 + 1.0, requires_grad=True)
    gain = Tensor(rng.standard_normal(n), requires_grad=True)
    bias = Tensor(rng.standard_normal(n), requires_grad=True)
    before = x.data.copy()
    out = nd.layer_norm(x, gain, bias)
    g = rng.standard_normal(shape)
    nd.backward(nd.sum_(nd.mul(out, Tensor(g))))
    np.testing.assert_array_equal(x.data, before)

    rows, grows = before.reshape(-1, n), g.reshape(-1, n)
    y, dx = np.empty_like(rows), np.empty_like(rows)
    for r, (row, grow) in enumerate(zip(rows, grows)):
        sigma = np.sqrt(np.var(row) + 1e-5)
        xhat = (row - row.mean()) / sigma
        y[r] = xhat * gain.data + bias.data
        # Jacobian of y with respect to the row: d y_i / d x_j
        jac = gain.data[:, None] * (np.eye(n) - 1.0 / n - np.outer(xhat, xhat) / n) / sigma
        dx[r] = grow @ jac
    xhats = (rows - rows.mean(axis=1, keepdims=True)) / np.sqrt(rows.var(axis=1, keepdims=True) + 1e-5)
    np.testing.assert_allclose(out.data.reshape(-1, n), y, rtol=0, atol=1e-12)
    np.testing.assert_allclose(x.grad.reshape(-1, n), dx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gain.grad, (grows * xhats).sum(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(bias.grad, grows.sum(axis=0), rtol=0, atol=1e-12)


def test_softmax_symmetry():
    out = nd.softmax(Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_upsample_then_shapes():
    x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
    up = nd.upsample_nearest2d(x, 2)
    assert up.shape == (1, 4, 4, 2)
    assert up.data[0, 0, 0, 0] == up.data[0, 1, 1, 0] == x.data[0, 0, 0, 0]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scale", [2, 3])
def test_upsample_is_the_two_repeat_copy_bitwise(rng, dtype, scale):
    x = rng.standard_normal((3, 2, 4, 5)).astype(dtype)
    up = nd.upsample_nearest2d(Tensor(x), scale).data
    assert up.dtype == np.dtype(dtype) and up.flags.c_contiguous
    assert up.tobytes() == x.repeat(scale, axis=1).repeat(scale, axis=2).tobytes()


def test_dropout_rate_zero_and_eval_deterministic(rng):
    x = Tensor(rng.standard_normal((4, 4)))
    out0 = nd.dropout(x, 0.0, True, rng)
    out1 = nd.dropout(x, 0.5, False, rng)
    np.testing.assert_array_equal(out0.data, x.data)
    np.testing.assert_array_equal(out1.data, x.data)


def test_dropout_mask_is_one_draw_at_the_shape_it_masks():
    """The mask is ``rng.random(a.shape) >= rate``, bitwise; kept entries scale by
    1 / (1 - rate), and the generator ends ``a.size`` draws on."""
    rate = 0.6
    x = Tensor(np.ones((7, 3)))
    rng, twin = nd.seed_stream(5, "drop"), nd.seed_stream(5, "drop")
    out = nd.dropout(x, rate, True, rng)
    expected = twin.random(x.shape) >= rate
    np.testing.assert_array_equal(out.data != 0, expected)
    np.testing.assert_array_equal(out.data[expected], 1.0 / (1.0 - rate))
    np.testing.assert_array_equal(rng.random(4), twin.random(4))


def test_take_increasing_index_gradient_matches_sorted_path(rng):
    """Distinct positions take the assignment path, increasing or shuffled; the
    gradients are equal, and equal to the scatter of the upstream rows."""
    rows, cols = np.nonzero(rng.random((4, 6)) > 0.4)
    upstream = rng.standard_normal((len(rows), 3))
    perm = rng.permutation(len(rows))
    grads = []
    for order in (np.arange(len(rows)), perm):
        a = Tensor(rng.standard_normal((4, 6, 3)), requires_grad=True)
        nd.backward(nd.sum_(nd.mul(nd.take(a, (rows[order], cols[order])), upstream[order])))
        grads.append(a.grad)
    np.testing.assert_array_equal(grads[0], grads[1])
    expected = np.zeros((4, 6, 3))
    expected[rows, cols] = upstream
    np.testing.assert_array_equal(grads[0], expected)


def test_take_refuses_a_slice():
    with pytest.raises(nd.ShapeError, match="integers"):
        nd.take(Tensor(np.zeros((3, 4))), (slice(None), 2))


def test_scatter_places_rows_and_gathers_the_gradient(rng):
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    at = (np.array([0, 1, 1]), np.array([2, 0, 2]))
    out = nd.scatter(a, at, (2, 3, 2))
    expected = np.zeros((2, 3, 2))
    expected[at] = a.data
    np.testing.assert_array_equal(out.data, expected)
    upstream = rng.standard_normal((2, 3, 2))
    nd.backward(nd.sum_(nd.mul(out, upstream)))
    np.testing.assert_array_equal(a.grad, upstream[at])
    with pytest.raises(ValueError):
        nd.scatter(a, at, (2, 3, 4))


@pytest.mark.parametrize("second_first", [False, True])
def test_add_hands_one_gradient_to_both_parents(second_first):
    """``add`` gives its upstream array to both parents; a later contribution
    to one of them, before or after, must leave the other's gradient alone."""
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    parts = [nd.add(a, b), nd.mul(a, 3.0)]
    loss = nd.sum_(nd.add(*(parts[::-1] if second_first else parts)))
    nd.backward(loss)
    np.testing.assert_array_equal(a.grad, np.full(3, 4.0))
    np.testing.assert_array_equal(b.grad, np.ones(3))


@pytest.mark.parametrize("op", [nd.add, nd.sub, nd.mul, nd.matmul])
@pytest.mark.parametrize("param_first", [True, False])
def test_backward_computes_no_gradient_for_a_constant_operand(monkeypatch, rng, op, param_first):
    """A binary op's backward computes the gradient of the operand that needs one and
    nothing for a constant one: one ``_unbroadcast`` call, at the parameter's shape."""
    shapes, unbroadcast = [], tensor_mod._unbroadcast
    monkeypatch.setattr(tensor_mod, "_unbroadcast", lambda g, shape: shapes.append(shape) or unbroadcast(g, shape))
    p, c = Tensor(rng.standard_normal((3, 3)), requires_grad=True), rng.standard_normal((3, 3))
    nd.backward(nd.sum_(op(p, c) if param_first else op(c, p)))
    assert shapes == [(3, 3)] and p.grad is not None


def test_embedding_gradient_sums_over_repeated_ids():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    ids = np.array([[1, 1], [1, 2]])
    upstream = np.arange(8.0).reshape(2, 2, 2)
    nd.backward(nd.sum_(nd.mul(nd.embedding(table, ids), upstream)))
    expected = np.zeros((4, 2))
    expected[1] = upstream[0, 0] + upstream[0, 1] + upstream[1, 0]
    expected[2] = upstream[1, 1]
    np.testing.assert_array_equal(table.grad, expected)

    # the tuple form, negative ids included
    logits = Tensor(np.zeros((3, 4)), requires_grad=True)
    rows, cols = np.array([0, 2, 2, 0, 2]), np.array([1, 3, -1, 1, 0])
    upstream = np.arange(1.0, 6.0)
    nd.backward(nd.sum_(nd.mul(nd.take(logits, (rows, cols)), upstream)))
    expected = np.zeros((3, 4))
    expected[0, 1] = upstream[0] + upstream[3]
    expected[2, 3] = upstream[1] + upstream[2]
    expected[2, 0] = upstream[4]
    np.testing.assert_array_equal(logits.grad, expected)


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
    "add", "mul", "matmul", "softmax", "layer_norm", "silu", "relu_off_kink",
    "softplus", "mean", "sum_axis", "reshape", "transpose", "concat", "take",
    "scatter", "embedding", "conv", "conv_strided", "conv_1x1", "conv_odd_strided", "upsample",
    "attention",
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
    kern1 = Tensor(rng.standard_normal((1, 1, 3, 2)), requires_grad=True)
    img_odd = Tensor(rng.standard_normal((2, 5, 3, 3)), requires_grad=True)
    zero = np.zeros(2)

    builders = {
        "add": (lambda: nd.add(a, b), [a, b]),
        "mul": (lambda: nd.mul(a, b), [a, b]),
        "matmul": (lambda: nd.matmul(a, nd.transpose(b, (1, 0))), [a, b]),
        "softmax": (lambda: nd.softmax(a, axis=-1), [a]),
        "layer_norm": (lambda: nd.layer_norm(a, gain, bias), [a, gain, bias]),
        "silu": (lambda: nd.silu(a), [a]),
        "relu_off_kink": (lambda: nd.relu(a), [a]),
        "softplus": (lambda: nd.softplus(a), [a]),
        "mean": (lambda: nd.mean(a), [a]),
        "sum_axis": (lambda: nd.sum_(a, axis=0), [a]),
        "reshape": (lambda: nd.reshape(a, (4, 3)), [a]),
        "transpose": (lambda: nd.transpose(a, (1, 0)), [a]),
        "concat": (lambda: nd.concat([a, b], axis=1), [a, b]),
        "take": (lambda: nd.take(a, (np.arange(3), 2)), [a]),
        "scatter": (lambda: nd.scatter(a, (np.array([2, 0, 1]), np.array([1, 3, 3])), (3, 5, 4)), [a]),
        "embedding": (lambda: nd.embedding(table, ids), [table]),
        "conv": (lambda: nd.conv2d(img, kern, zero, padding=1), [img, kern]),
        "conv_strided": (lambda: nd.conv2d(img, kern, zero, stride=2, padding=1), [img, kern]),
        "conv_1x1": (lambda: nd.conv2d(img, kern1, zero), [img, kern1]),
        "conv_odd_strided": (lambda: nd.conv2d(img_odd, kern, zero, stride=2, padding=1), [img_odd, kern]),
        "upsample": (lambda: nd.upsample_nearest2d(img, 2), [img]),
        "attention": (lambda: nd.scaled_dot_attention(q, q, q), [q]),
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


def _truncated_copy(tmp_path, rng, keep):
    """A checkpoint of two arrays, cut to ``keep(data, manifest_end)`` bytes."""
    path = tmp_path / "model.ckpt"
    nd.save_checkpoint(path, {"a.w": rng.standard_normal((3, 4)), "b.w": rng.standard_normal((5, 6))})
    data = path.read_bytes()
    manifest_end = 16 + int(np.frombuffer(data[8:16], dtype="<u8")[0])
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(data[:keep(data, manifest_end)])
    return cut


@pytest.mark.parametrize("keep, match", [
    (lambda data, end: 12, "truncated header: 12 of 16 bytes"),
    (lambda data, end: end - 5, "truncated manifest"),
    (lambda data, end: end + 40, "array 'a.w' truncated: 40 of 96 bytes"),
    (lambda data, end: len(data) - 100, "array 'b.w' truncated: 140 of 240 bytes"),
], ids=["header", "manifest", "first_array", "last_array"])
def test_checkpoint_truncation_names_file_and_part(tmp_path, rng, keep, match):
    cut = _truncated_copy(tmp_path, rng, keep)
    with pytest.raises(ValueError, match=match) as exc:
        nd.load_checkpoint(cut)
    assert str(cut) in str(exc.value)


# ---------------------------------------------------------------------------
# rng streams


def test_seed_stream_deterministic_and_distinct():
    a1 = nd.seed_stream(7, "x", 1).standard_normal(4)
    a2 = nd.seed_stream(7, "x", 1).standard_normal(4)
    b = nd.seed_stream(7, "x", 2).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)

