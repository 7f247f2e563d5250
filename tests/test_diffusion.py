import numpy as np
import pytest

from seqaug import diffusion as dm
from seqaug import numerics as nd
from seqaug.diffusion import GuidanceConfig
from seqaug.numerics import Tensor, seed_stream
from seqaug.schedule import make_schedule
from seqaug.srs import SrsConfig, SrsModel
from seqaug.sunet import SUNet, SUNetConfig


@pytest.fixture
def sched():
    return make_schedule("linear", 10, 0.05, 0.3)


@pytest.fixture
def tiny_net():
    cfg = SUNetConfig(channels=2, embed_dim=16, levels=2, channel_mult=(1, 2),
                      base_width=8, res_blocks=1)
    return SUNet(cfg, num_items=12, rng=seed_stream(0, "difftest"))


class StubPredictor:
    """Duck-typed noise predictor returning a fixed response."""

    def __init__(self, d, response):
        self.config = SUNetConfig(channels=2, embed_dim=d)
        self._response = response
        self.item_emb = Tensor(np.zeros((13, d)))

    def predict_noise(self, x_t, t, c):
        return nd.as_tensor(self._response(nd.as_tensor(x_t).data))


# ---------------------------------------------------------------------------
# forward process


def test_forward_sample_zero_noise_limit(sched):
    x0 = np.ones((2, 3))
    xt = dm.forward_sample(x0, 4, np.zeros((2, 3)), sched)
    np.testing.assert_allclose(xt, np.sqrt(sched.alpha_bar[3]) * x0, atol=1e-15)


def test_forward_sample_direct_formula():
    # alpha_bar = 0.25 at t=2 for beta = (0.5, 0.5)
    sched = make_schedule("linear", 2, 0.5, 0.5)
    xt = dm.forward_sample(np.ones((2, 2)), 2, np.ones((2, 2)), sched)
    np.testing.assert_allclose(xt, np.full((2, 2), 0.5 + np.sqrt(0.75)), atol=1e-12)


def test_forward_sample_shape_mismatch(sched):
    with pytest.raises(nd.ShapeError):
        dm.forward_sample(np.ones((2, 3)), 1, np.ones((3, 2)), sched)


def test_forward_sample_t_out_of_range(sched):
    with pytest.raises(ValueError):
        dm.forward_sample(np.ones(2), 11, np.ones(2), sched)
    with pytest.raises(ValueError):
        dm.forward_sample(np.ones(2), 0, np.ones(2), sched)


def test_forward_moments_match_monte_carlo(sched):
    """Closed-form marginal: mean sqrt(ab_t) x0, variance (1 - ab_t)."""
    rng = np.random.default_rng(7)
    x0 = np.array([[1.5, -2.0], [0.5, 3.0]])
    n = 100_000
    t = 6
    eps = rng.standard_normal((n,) + x0.shape)
    draws = np.sqrt(sched.alpha_bar[t - 1]) * x0 + np.sqrt(1 - sched.alpha_bar[t - 1]) * eps
    mean_se = np.sqrt(draws.var(axis=0) / n)
    assert np.all(np.abs(draws.mean(axis=0) - np.sqrt(sched.alpha_bar[t - 1]) * x0) < 3 * mean_se)
    var = draws.var(axis=0)
    var_se = var * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var - (1 - sched.alpha_bar[t - 1])) < 3 * var_se)


def test_iterated_chain_matches_closed_form_marginal(sched):
    """Step-by-step noising and the closed form agree in mean and variance."""
    rng = np.random.default_rng(3)
    x0 = np.array([[1.0, -1.0], [2.0, 0.5]])
    n = 100_000
    t = 10
    iterated = dm.iterated_forward(np.broadcast_to(x0, (n,) + x0.shape), t, sched, rng)
    closed = dm.forward_sample(np.broadcast_to(x0, (n,) + x0.shape), t,
                               rng.standard_normal((n,) + x0.shape), sched)
    for draws_a, draws_b in ((iterated, closed),):
        diff_mean = draws_a.mean(axis=0) - draws_b.mean(axis=0)
        se = np.sqrt(draws_a.var(axis=0) / n + draws_b.var(axis=0) / n)
        assert np.all(np.abs(diff_mean) < 3 * se)
        va, vb = draws_a.var(axis=0), draws_b.var(axis=0)
        se_v = np.sqrt(2.0 / (n - 1)) * np.sqrt(va**2 + vb**2)
        assert np.all(np.abs(va - vb) < 3 * se_v)


# ---------------------------------------------------------------------------
# training loss


def test_loss_zero_when_predictor_returns_the_drawn_noise(sched):
    rng = np.random.default_rng(0)
    eps = rng.standard_normal((2, 2, 16))
    stub = StubPredictor(16, lambda x: eps)
    loss = dm.loss_given_draws(stub, np.array([[1, 2], [3, 4]]), [[1], [2]],
                               sched, np.array([3, 7]), eps)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-24)


def test_loss_is_mean_eps_squared_for_zero_predictor(sched):
    rng = np.random.default_rng(1)
    eps = rng.standard_normal((16, 2, 16))
    stub = StubPredictor(16, lambda x: np.zeros_like(x))
    loss = dm.loss_given_draws(stub, rng.integers(1, 13, (16, 2)), [[1]] * 16,
                               sched, rng.integers(1, 11, 16), eps)
    assert float(loss.data) == pytest.approx(np.mean(eps**2), rel=1e-12)


def test_loss_nonnegative_and_stochastic_draw_path(tiny_net, sched):
    rng = seed_stream(5, "loss")
    loss = dm.training_loss(tiny_net, np.array([[1, 2], [3, 4]]), [[5, 6], [7]],
                            sched, rng, p_uncond=0.5)
    assert float(loss.data) >= 0.0


def test_loss_monte_carlo_expectation_zero_predictor(sched):
    """E[mean(eps^2)] = 1 over many draws (law of large numbers)."""
    stub = StubPredictor(16, lambda x: np.zeros_like(x))
    rng = seed_stream(6, "mc")
    vals = [float(dm.training_loss(stub, np.array([[1, 2]]), [[1]], sched, rng).data)
            for _ in range(300)]
    # each sample averages 32 entries; SE of the grand mean ~ sqrt(2/32/300)
    assert np.mean(vals) == pytest.approx(1.0, abs=3 * np.sqrt(2.0 / 32 / 300))


# ---------------------------------------------------------------------------
# guidance algebra


def test_diffusion_cf_gamma_zero_is_conditional_bitwise(tiny_net, sched):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 2, 16))
    c = rng.standard_normal((2, 16))
    guided = dm.guide_noise(tiny_net, x, 3, c, GuidanceConfig("diffusion_cf", 0.0), sched)
    with nd.no_grad():
        cond = tiny_net.predict_noise(x, 3, c).data
    np.testing.assert_array_equal(guided, cond)


def test_diffusion_cf_identical_outputs_gamma_invariant(sched):
    rng = np.random.default_rng(3)
    fixed = rng.standard_normal((1, 2, 16))
    stub = StubPredictor(16, lambda x: np.broadcast_to(fixed, (x.shape[0], 2, 16)).copy())
    x = rng.standard_normal((2, 2, 16))
    c = rng.standard_normal((2, 16))
    for gamma in (0.0, 0.1, 1.0, 10.0, 100.0):
        out = dm.guide_noise(stub, x, 2, c, GuidanceConfig("diffusion_cf", gamma), sched)
        np.testing.assert_array_equal(out, np.broadcast_to(fixed, (2, 2, 16)))


def test_diffusion_cf_scalarized_arithmetic(sched):
    """cond 1.0, uncond 0.5, gamma 1 -> 2*1.0 - 1*0.5 = 1.5"""

    class CondStub(StubPredictor):
        def predict_noise(self, x_t, t, c):
            c_arr = nd.as_tensor(c).data
            # the unconditional branch is flagged by an all-zero condition row
            is_uncond = np.all(c_arr == 0.0, axis=1)
            vals = np.where(is_uncond[:, None, None], 0.5, 1.0)
            return nd.as_tensor(np.broadcast_to(vals, (c_arr.shape[0], 2, 16)))

    stub = CondStub(16, None)
    x = np.zeros((1, 2, 16))
    c = np.ones((1, 16))
    out = dm.guide_noise(stub, x, 2, c, GuidanceConfig("diffusion_cf", 1.0), sched)
    np.testing.assert_allclose(out, np.full((1, 2, 16), 1.5), atol=1e-12)


def test_diffusion_cg_gamma_zero_is_unguided(tiny_net, sched):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 2, 16))
    c = rng.standard_normal((2, 16))
    classifier = SrsModel(SrsConfig(num_items=12, embed_dim=16, blocks=1, max_len=4,
                                    dropout=0.0), seed_stream(1, "clf"))
    cfg = GuidanceConfig("diffusion_cg", 0.0, classifier=classifier)
    out = dm.guide_noise(tiny_net, x, 3, c, cfg, sched, raw_first_items=[1, 2])
    with nd.no_grad():
        cond = tiny_net.predict_noise(x, 3, c).data
    np.testing.assert_array_equal(out, cond)


def test_diffusion_cg_shifts_along_scorer_gradient(tiny_net, sched):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 2, 16))
    c = rng.standard_normal((2, 16))
    classifier = SrsModel(SrsConfig(num_items=12, embed_dim=16, blocks=1, max_len=4,
                                    dropout=0.0), seed_stream(1, "clf"))
    grad = dm.scorer_input_gradient(classifier, x, [3, 4])
    cfg = GuidanceConfig("diffusion_cg", 2.0, classifier=classifier)
    out = dm.guide_noise(tiny_net, x, 3, c, cfg, sched, raw_first_items=[3, 4])
    with nd.no_grad():
        cond = tiny_net.predict_noise(x, 3, c).data
    expected = cond - 2.0 * np.sqrt(1 - sched.alpha_bar[2]) * grad
    np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


def test_diffusion_cg_requires_classifier():
    with pytest.raises(ValueError, match="classifier"):
        GuidanceConfig("diffusion_cg", 1.0)


def test_scorer_input_gradient_matches_finite_differences():
    classifier = SrsModel(SrsConfig(num_items=10, embed_dim=16, blocks=1, max_len=3,
                                    dropout=0.0), seed_stream(2, "clf-fd"))
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 3, 16))
    grad = dm.scorer_input_gradient(classifier, x, [4])

    def log_p(arr):
        with nd.no_grad():
            logits = classifier.score_embedded(Tensor(arr)).data
        return float(-np.logaddexp(0.0, -logits[0, 3]))

    step = 1e-5
    for idx in [(0, 0, 0), (0, 1, 7), (0, 2, 15)]:
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        fd = (log_p(xp) - log_p(xm)) / (2 * step)
        assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# reverse step


def test_reverse_step_formula_reduction(tiny_net, sched):
    # eps_hat == 0 and sigma == 0 collapses to x / sqrt(alpha_t)
    stub = StubPredictor(16, lambda x: np.zeros_like(x))
    x = np.ones((1, 2, 16))
    out = dm.reverse_step(stub, x, 1, np.zeros((1, 16)), GuidanceConfig(), sched, None)
    np.testing.assert_allclose(out, x / np.sqrt(sched.alpha[0]), atol=1e-12)


def test_reverse_step_scalar_hand_formula():
    """alpha=0.96, beta=0.04, ab=0.5, x=1, eps_hat=0.2 -> 1.00900 (zeta=0)."""
    sched = make_schedule("linear", 2, 0.04, 0.04)
    object.__setattr__(sched, "alpha_bar", np.array([0.9, 0.5]))
    stub = StubPredictor(16, lambda x: np.full_like(x, 0.2))
    x = np.ones((1, 2, 16))
    out = dm.reverse_step(stub, x, 2, np.zeros((1, 16)), GuidanceConfig(), sched,
                          np.zeros((1, 2, 16)))
    # hand evaluation of the mean formula: (1/sqrt(0.96)) * (1 - 0.04/sqrt(0.5) * 0.2)
    expected = (1.0 - (0.04 / np.sqrt(0.5)) * 0.2) / np.sqrt(0.96)
    assert expected == pytest.approx(1.0090737, abs=1e-6)
    np.testing.assert_allclose(out, np.full((1, 2, 16), expected), atol=1e-12)


def test_reverse_step_t_range(sched, tiny_net):
    with pytest.raises(ValueError):
        dm.reverse_step(tiny_net, np.zeros((1, 2, 16)), 0, np.zeros((1, 16)),
                        GuidanceConfig(), sched, None)


def test_batched_vs_per_row_sampling_bitwise(tiny_net, sched):
    """Per-user noise streams make results independent of batch composition."""
    raws = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
    cfg = GuidanceConfig("diffusion_cf", 1.0)
    full = dm.sample(tiny_net, raws, 2, cfg, sched, seed=11, user_keys=[10, 20, 30])
    rows = [dm.sample(tiny_net, [raws[i]], 2, cfg, sched, seed=11, user_keys=[k])
            for i, k in enumerate([10, 20, 30])]
    np.testing.assert_array_equal(full, np.concatenate(rows, axis=0))


def test_sample_contract_shape_and_determinism(tiny_net, sched):
    raws = [[1, 2], [3, 4, 5]]
    cfg = GuidanceConfig()
    a = dm.sample(tiny_net, raws, 2, cfg, sched, seed=3)
    b = dm.sample(tiny_net, raws, 2, cfg, sched, seed=3)
    assert a.shape == (2, 2, 16)
    np.testing.assert_array_equal(a, b)
    c = dm.sample(tiny_net, raws, 2, cfg, sched, seed=4)
    assert np.abs(a - c).max() > 0


def test_sampling_with_sigma_forced_zero_is_deterministic_function_of_xt(tiny_net):
    sched = make_schedule("linear", 5, 0.05, 0.2)
    object.__setattr__(sched, "sigma2", np.zeros(5))
    raws = [[1, 2]]
    a = dm.sample(tiny_net, raws, 2, GuidanceConfig(), sched, seed=5)
    b = dm.sample(tiny_net, raws, 2, GuidanceConfig(), sched, seed=5)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# rounding


def test_rounding_prefers_cosine_over_dot():
    table = np.array([[0.0, 0.0], [0.6, 0.8], [1.0, 0.0]])  # rows: pad, v1, v2
    ids, fallbacks = dm.round_to_items(np.array([[[1.0, 0.0]]]), table)
    assert ids[0, 0] == 2 and fallbacks == 0


def test_rounding_scale_invariance(rng):
    table = np.vstack([np.zeros(4), np.eye(4)])  # orthogonal items 1..4
    for v in range(1, 5):
        row = 5.0 * table[v]
        ids, _ = dm.round_to_items(row[None, None, :], table)
        assert ids[0, 0] == v


def test_rounding_matches_brute_force_scan(rng):
    table = np.vstack([np.zeros(6), rng.standard_normal((50, 6))])
    x = rng.standard_normal((100, 3, 6))
    ids, fallbacks = dm.round_to_items(x, table)
    assert fallbacks == 0
    for i in range(100):
        for j in range(3):
            sims = [np.dot(x[i, j], table[v]) / (np.linalg.norm(x[i, j]) * np.linalg.norm(table[v]))
                    for v in range(1, 51)]
            assert ids[i, j] == int(np.argmax(sims)) + 1


def test_rounding_rescaled_row_keeps_argmax(rng):
    table = np.vstack([np.zeros(5), rng.standard_normal((20, 5))])
    x = rng.standard_normal((10, 2, 5))
    base, _ = dm.round_to_items(x, table)
    table2 = table.copy()
    table2[7] *= 12.5  # positive rescaling of one embedding row
    again, _ = dm.round_to_items(x, table2)
    np.testing.assert_array_equal(base, again)


def test_rounding_zero_norm_fallback_counts(rng):
    table = np.vstack([np.zeros(3), rng.standard_normal((5, 3))])
    x = np.zeros((1, 2, 3))
    x[0, 1] = rng.standard_normal(3)
    ids, fallbacks = dm.round_to_items(x, table)
    assert fallbacks == 1
    assert 1 <= ids.min() and ids.max() <= 5


def test_rounding_tie_breaks_to_smallest_id():
    dup = np.array([0.5, 0.5])
    table = np.vstack([np.zeros(2), dup, dup, np.array([-1.0, 0.3])])
    ids, _ = dm.round_to_items(dup[None, None, :], table)
    assert ids[0, 0] == 1


def test_rounding_forbid_padding_flag():
    table = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = np.array([[[2.0, 0.1]]])
    with_pad, _ = dm.round_to_items(x, table, forbid_padding=False)
    without, _ = dm.round_to_items(x, table, forbid_padding=True)
    assert with_pad[0, 0] == 0 and without[0, 0] == 1
