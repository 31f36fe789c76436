"""Unit and property tests for the robust loss families."""

import itertools
import math
import types
import warnings

import numpy as np
import pytest

from arl import losses as L
from arl.errors import DomainError, NumericError


def rel_err(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def fd_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def random_probs(rng, c):
    p = rng.dirichlet(np.ones(c))
    # keep away from the clamp floor so finite differences stay smooth
    return (p + 0.01) / (1 + 0.01 * c)


class TestCrossEntropy:
    def test_uniform_ten_classes(self):
        ev = L.ce(np.full(10, 0.1), 7)
        assert ev.value == pytest.approx(2.302585093, abs=1e-8)

    def test_confident_correct(self):
        p = np.zeros(4)
        p[2] = 1.0
        assert L.ce(p, 2).value == pytest.approx(0.0, abs=1e-11)

    def test_half(self):
        assert L.ce(np.array([0.5, 0.5]), 0).value == pytest.approx(0.6931471806, abs=1e-9)

    def test_grad_is_p_minus_y(self):
        p = np.array([0.6, 0.3, 0.1])
        np.testing.assert_allclose(L.ce(p, 1).grad_logits, [0.6, -0.7, 0.1])

    def test_no_hyper_grad(self):
        assert L.ce(np.array([0.5, 0.5]), 0).grad_hyper.size == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            L.ce(np.array([np.nan, 1.0]), 0)


class TestGeneralizedCE:
    def test_q_one_is_mae(self):
        p = np.array([0.5, 0.25, 0.25])
        assert L.gce(p, 0, 1.0).value == pytest.approx(0.5)
        for _ in range(20):
            p = random_probs(np.random.default_rng(_), 5)
            assert L.gce(p, 2, 1.0).value == pytest.approx(1.0 - p[2], abs=1e-12)

    def test_half_power(self):
        p = np.array([0.25, 0.5, 0.25])
        assert L.gce(p, 0, 0.5).value == pytest.approx(1.0)

    def test_small_q_matches_ce(self):
        # the q -> 0 limit is cross entropy; at q = 1e-4 the Taylor gap is
        # q * ln(p)^2 / 2, which peaks just above 1e-3 at p = 0.01
        for pj in np.linspace(0.01, 0.99, 40):
            p = np.array([pj, 1.0 - pj])
            gap = abs(L.gce(p, 0, 1e-4).value - L.ce(p, 0).value)
            assert gap <= 1.1e-3

    def test_q_domain(self):
        p = np.array([0.5, 0.5])
        for q in (0.0, -0.1, 1.5, np.nan):
            with pytest.raises(DomainError):
                L.gce(p, 0, q)


class TestReverseCE:
    def test_example(self):
        assert L.rce(np.array([0.6, 0.3, 0.1]), 0, -4.0).value == pytest.approx(1.6)

    def test_one_hot_is_zero(self):
        p = np.zeros(5)
        p[3] = 1.0
        assert L.rce(p, 3, -4.0).value == pytest.approx(0.0, abs=1e-11)

    def test_uniform_ten(self):
        assert L.rce(np.full(10, 0.1), 4, -4.0).value == pytest.approx(3.6)

    def test_scale_domain(self):
        with pytest.raises(DomainError):
            L.rce(np.array([0.5, 0.5]), 0, 0.0)
        with pytest.raises(DomainError):
            L.rce(np.array([0.5, 0.5]), 0, 4.0)


class TestSymmetricLoss:
    def test_reductions(self):
        rng = np.random.default_rng(0)
        p = random_probs(rng, 4)
        assert L.sl(p, 1, 1.0, 0.0).value == pytest.approx(L.ce(p, 1).value)
        assert L.sl(p, 1, 0.0, 1.0).value == pytest.approx(L.rce(p, 1).value)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = random_probs(rng, 6)
            v_ce = L.ce(p, 2).value
            v_rce = L.rce(p, 2).value
            ev = L.sl(p, 2, 2.0, 3.0)
            assert ev.value == pytest.approx(2.0 * v_ce + 3.0 * v_rce, rel=1e-12)
            np.testing.assert_allclose(ev.grad_hyper, [v_ce, v_rce])

    def test_negative_gamma(self):
        with pytest.raises(DomainError):
            L.sl(np.array([0.5, 0.5]), 0, -1.0, 1.0)


class TestTemperedMath:
    def test_log_t_at_one_arg(self):
        for t in (0.0, 0.5, 1.0, 1.5, 2.5):
            assert L.log_t(1.0, t) == pytest.approx(0.0, abs=1e-12)

    def test_log_t_example(self):
        assert L.log_t(4.0, 0.5) == pytest.approx(2.0)

    def test_log_t_near_one(self):
        assert L.log_t(math.e, 1.0 - 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_log_t_domain(self):
        with pytest.raises(DomainError):
            L.log_t(0.0, 0.5)
        with pytest.raises(DomainError):
            L.log_t(-1.0, 0.5)

    def test_exp_t_at_zero(self):
        for t in (0.0, 0.5, 1.0, 1.5, 2.5):
            assert L.exp_t(0.0, t) == pytest.approx(1.0)

    def test_exp_t_example(self):
        assert L.exp_t(-1.0, 2.0) == pytest.approx(0.5)

    def test_exp_t_infinity_sentinel(self):
        assert L.exp_t(2.0, 2.0) == np.inf

    def test_exp_t_zero_branch(self):
        assert L.exp_t(-3.0, 0.5) == 0.0

    def test_roundtrip(self):
        ts = list(np.linspace(0.0, 0.9, 7)) + list(np.linspace(1.1, 3.0, 7))
        for t in ts:
            for x in np.geomspace(1e-4, 1.0, 25):
                back = L.exp_t(L.log_t(x, t), t)
                assert abs(back - x) <= 1e-10


class TestTemperedSoftmax:
    def test_symmetry(self):
        p, gamma = L.tempered_softmax(np.full(4, 2.0), 1.7)
        np.testing.assert_allclose(p, 0.25, atol=1e-12)
        assert gamma >= 2.0

    def test_matches_softmax_near_t2_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.normal(size=6) * 2.0
            p, _ = L.tempered_softmax(z, 1.0 + 1e-8)
            assert rel_err(p, L.softmax(z)) <= 1e-6

    def test_normalization(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = rng.normal(size=rng.integers(2, 12)) * rng.uniform(0.5, 8.0)
            t2 = rng.uniform(1.05, 3.0)
            p, gamma = L.tempered_softmax(z, t2)
            assert abs(p.sum() - 1.0) <= 1e-10
            assert gamma >= z.max()

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            z = rng.normal(size=5) * 3.0
            shift = rng.uniform(-50.0, 50.0)
            p0, g0 = L.tempered_softmax(z, 2.0)
            p1, g1 = L.tempered_softmax(z + shift, 2.0)
            assert np.max(np.abs(p0 - p1)) <= 1e-9
            assert g1 - g0 == pytest.approx(shift, abs=1e-9)


def _bisect_reference(Z, t2):
    """Reference normalization: bracket doubling, then bisection to 1e-12."""
    if abs(t2 - 1.0) < L._T_NEAR_ONE:
        return L.softmax(Z), L.logsumexp(Z)
    s = 1.0 - t2

    def row_sums(gamma):
        with np.errstate(divide="ignore"):
            return np.exp(np.log1p(np.maximum(s * (Z - gamma[:, None]), -1.0)) / s).sum(axis=1)

    lo = Z.max(axis=1)
    width = np.ones(len(lo))
    while True:
        too_low = row_sums(lo + width) >= 1.0
        if not too_low.any():
            break
        width[too_low] *= 2.0
    hi = lo + width
    for _ in range(200):
        if np.all(hi - lo <= 1e-12):
            break
        mid = 0.5 * (lo + hi)
        ge_one = row_sums(mid) >= 1.0
        lo = np.where(ge_one, mid, lo)
        hi = np.where(ge_one, hi, mid)
    gamma = 0.5 * (lo + hi)
    with np.errstate(divide="ignore"):
        P = np.exp(np.log1p(np.maximum(s * (Z - gamma[:, None]), -1.0)) / s)
    return P, gamma


class TestNewtonSolve:
    @pytest.mark.parametrize("t2", [0.3, 0.9, 1 - 1e-6, 1 + 1e-8, 1 + 1e-6, 1.01, 1.5, 4.0, 10.0])
    def test_matches_bisection(self, t2, monkeypatch):
        passes = [0]
        exp_t_neg_args = L._exp_t_neg_args

        def counted(X, s):
            passes[0] += 1
            return exp_t_neg_args(X, s)

        monkeypatch.setattr(L, "_exp_t_neg_args", counted)
        rng = np.random.default_rng(int(t2 * 1000))
        for scale in np.geomspace(1e-3, 1e3, 7):
            for c in (2, 3, 10):
                Z = rng.normal(size=(20, c)) * scale
                passes[0] = 0
                P, gamma = L._tempered_softmax_batch(Z, t2)
                P_ref, gamma_ref = _bisect_reference(Z, t2)
                assert np.max(np.abs(P - P_ref)) <= 1e-12
                assert np.max(np.abs(gamma - gamma_ref) / np.maximum(1.0, np.abs(gamma_ref))) <= 1e-12
                assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12
                assert passes[0] <= 20

    def test_mixed_rows_match_single_rows(self):
        rng = np.random.default_rng(31)
        t2 = rng.choice([0.3, 0.9, 1 + 1e-9, 1.01, 1.5, 4.0, 10.0], size=40)
        Z = rng.normal(size=(40, 4)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1))
        P, gamma = L._tempered_softmax_batch(Z, t2)
        for i in range(len(Z)):
            P_i, gamma_i = L._tempered_softmax_batch(Z[i:i + 1], t2[i])
            assert np.array_equal(P[i], P_i[0])
            assert gamma[i] == gamma_i[0]

    def test_stacked_probes_match_loop_bitwise(self):
        # each row's Newton steps are its own, so the tolerance is zero
        rng = np.random.default_rng(37)
        Z = rng.normal(size=(16, 3)) * 3.0
        labels = rng.integers(3, size=16)
        probes = [L.HyperParams("bi_tempered", t1=t1, t2=t2)
                  for t1, t2 in [(0.5001, 1.5), (0.4999, 1.5), (0.5, 1.5001), (0.5, 1.4999),
                                 (0.2, 1.0 + 1e-9), (0.9, 4.0)]]
        values, grads = L.batch_loss(probes, Z, labels)
        assert values.shape == (6, 16) and grads.shape == (6, 16, 3)
        for k, h in enumerate(probes):
            v_k, g_k = L.batch_loss(h, Z, labels)
            assert np.array_equal(values[k], v_k)
            assert np.array_equal(grads[k], g_k)

    def test_step_cap_raises_with_context(self, monkeypatch):
        monkeypatch.setattr(L, "_NEWTON_MAX_STEPS", 2)
        Z = np.array([[0.0, -500.0, 1000.0]])
        with pytest.raises(NumericError, match=r"t2=\[10\.\].*\|sum p - 1\| = .*logit range"):
            L._tempered_softmax_batch(Z, 10.0)

    @pytest.mark.parametrize("t2", [1.000099, 1.0000995])
    def test_probe_just_below_one(self, t2):
        # the t2 - 1e-4 probe lands just below 1, where 1 + s*X needs log1p
        rng = np.random.default_rng(41)
        for _ in range(200):
            z = rng.normal(size=int(rng.integers(2, 8))) * rng.uniform(0.5, 8.0)
            ev = L.bi_tempered(z, 0, 0.5, t2)
            assert np.isfinite(ev.value) and np.all(np.isfinite(ev.grad_hyper))


def _simplex_grid(c, parts):
    """All probability vectors with entries k/parts; brute-force oracle."""
    grid = []
    for comp in itertools.combinations_with_replacement(range(c), parts):
        counts = np.bincount(comp, minlength=c)
        grid.append(counts / parts)
    return np.array(grid)


class TestBiTempered:
    def test_matches_ce_at_limit(self):
        # the agreement degrades as (t - 1) * ln(p)^2, so unit-scale logits
        rng = np.random.default_rng(3)
        for _ in range(30):
            z = rng.normal(size=5)
            ref = L.ce(L.softmax(z), 1).value
            got = L.bi_tempered(z, 1, 1.0 - 1e-6, 1.0 + 1e-6).value
            assert abs(got - ref) <= 1e-4

    def test_confident_prediction_small(self):
        # with t2 = 2 the tails decay as a power law, so a +20 margin over
        # nine classes still leaves ~41% of the mass off-label and a loss
        # of ~0.16; the loss decays to 0 only as the margin grows further
        z = np.zeros(10)
        z[4] = 20.0
        v20 = L.bi_tempered(z, 4, 0.5, 2.0).value
        assert v20 <= 0.2
        z[4] = 1e5
        assert L.bi_tempered(z, 4, 0.5, 2.0).value <= 1e-3
        assert L.bi_tempered(z, 4, 0.5, 2.0).value < v20
        # in the light-tailed t2 -> 1 limit, +20 is already conclusive
        z[4] = 20.0
        assert L.bi_tempered(z, 4, 0.5, 1.0 + 1e-9).value <= 1e-3

    def test_bounded_sweep(self):
        # brute-force maximization over a simplex grid confirms the bound,
        # then a random logit sweep must stay inside it
        t1, t2, c = 0.5, 2.0, 10
        bound = 1.0 / (1.0 - t1) + (1.0 - c ** (t1 - 1.0)) / (2.0 - t1)
        grid = np.clip(_simplex_grid(c, 6), L.PROB_FLOOR, 1.0)
        log_term = (grid[:, 0] ** (1.0 - t1) - 1.0) / (1.0 - t1)
        tail = (1.0 - (grid ** (2.0 - t1)).sum(axis=1)) / (2.0 - t1)
        grid_max = np.max(-log_term - tail)
        assert grid_max <= bound

        rng = np.random.default_rng(5)
        for _ in range(1000):
            z = rng.normal(size=c) * rng.uniform(0.5, 6.0)
            v = L.bi_tempered(z, int(rng.integers(c)), t1, t2).value
            assert 0.0 <= v <= bound

    def test_domain(self):
        z = np.zeros(3)
        with pytest.raises(DomainError):
            L.bi_tempered(z, 0, 1.0, 2.0)
        with pytest.raises(DomainError):
            L.bi_tempered(z, 0, 0.5, 1.0)
        with pytest.raises(DomainError):
            L.bi_tempered(z, 0, -0.1, 2.0)


class TestPolySoft:
    def test_plateau(self):
        assert L.polysoft(2.0, 1.0, 2.0).value == pytest.approx(0.5)

    def test_zero(self):
        assert L.polysoft(0.0, 1.0, 2.0).value == pytest.approx(0.0)

    def test_interior(self):
        assert L.polysoft(0.75, 1.0, 2.0).value == pytest.approx(0.46875)

    def test_weight_examples(self):
        assert L.polysoft_weight(0.75, 1.0, 2.0) == pytest.approx(0.25)
        assert L.polysoft_weight(1.0, 1.0, 2.0) == 0.0
        assert L.polysoft_weight(5.0, 1.0, 2.0) == 0.0
        assert L.polysoft_weight(0.0, 1.0, 2.0) == pytest.approx(1.0)

    def test_continuous_nondecreasing(self):
        lam, d = 1.3, 2.5
        ce_grid = np.linspace(0.0, 3.0 * lam, 800)
        vals = np.array([L.polysoft(x, lam, d).value for x in ce_grid])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.abs(np.diff(vals)) <= 2.0 * (ce_grid[1] - ce_grid[0]))
        plateau = (d - 1.0) * lam / d
        np.testing.assert_allclose(vals[ce_grid >= lam], plateau, atol=1e-12)
        weights = L.polysoft_weight(ce_grid, lam, d)
        assert np.all(np.diff(weights) <= 1e-12)

    def test_weight_is_ce_derivative(self):
        lam, d = 1.0, 3.0
        for ce_val in (0.1, 0.4, 0.8, 0.99, 1.5):
            h = 1e-7
            fd = (L.polysoft(ce_val + h, lam, d).value - L.polysoft(ce_val - h, lam, d).value) / (2 * h)
            assert fd == pytest.approx(L.polysoft_weight(ce_val, lam, d), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            L.polysoft(1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            L.polysoft(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            L.polysoft(-0.5, 1.0, 2.0)


class TestReparameterization:
    def test_theta_zero_slots(self):
        h = L.from_unconstrained(np.zeros(1), L.HyperParams("gce"))
        assert h.q == pytest.approx(L.EPS_Q + (1.0 - L.EPS_Q) / 2.0)
        h = L.from_unconstrained(np.zeros(2), L.HyperParams("sl"))
        assert h.gamma1 == pytest.approx(math.log(2.0))
        assert h.gamma2 == pytest.approx(math.log(2.0))

    def test_roundtrips(self):
        cases = [
            L.HyperParams("gce", q=0.3),
            L.HyperParams("gce", q=0.999),
            L.HyperParams("sl", gamma1=0.1, gamma2=10.0),
            L.HyperParams("bi_tempered", t1=0.05, t2=1.01),
            L.HyperParams("bi_tempered", t1=0.9, t2=4.0),
            L.HyperParams("polysoft", lam=2.302, d=1.5),
            L.HyperParams("polysoft", lam=20.0, d=8.0),
        ]
        for h in cases:
            back = L.from_unconstrained(L.to_unconstrained(h), h)
            for name in h.learnable_names:
                assert getattr(back, name) == pytest.approx(getattr(h, name), abs=1e-10)

    def test_always_feasible(self):
        rng = np.random.default_rng(17)
        for variant in ("gce", "sl", "bi_tempered", "polysoft"):
            like = L.default_hyper(variant, 3)
            for _ in range(50):
                theta = rng.normal(size=len(like.learnable_names)) * 10.0
                L.from_unconstrained(theta, like).validate()

    def test_boundary_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            theta = L.to_unconstrained(L.HyperParams("gce", q=1.0))
        h = L.from_unconstrained(theta, L.HyperParams("gce"))
        assert abs(h.q - 1.0) <= 1e-10
        with pytest.warns(UserWarning):
            theta = L.to_unconstrained(L.HyperParams("sl", gamma1=0.0))
        h = L.from_unconstrained(theta, L.HyperParams("sl"))
        assert abs(h.gamma1) <= 1e-10

    def test_scale_matches_fd(self):
        rng = np.random.default_rng(19)
        for variant in ("gce", "sl", "bi_tempered", "polysoft"):
            like = L.default_hyper(variant, 3)
            names = like.learnable_names
            for _ in range(10):
                theta = rng.normal(size=len(names)) * 2.0
                scale = L.reparam_scale(variant, theta)
                for k, name in enumerate(names):
                    e = np.zeros_like(theta)
                    e[k] = 1e-6
                    hi = getattr(L.from_unconstrained(theta + e, like), name)
                    lo = getattr(L.from_unconstrained(theta - e, like), name)
                    assert (hi - lo) / 2e-6 == pytest.approx(scale[k], rel=1e-6)


def _hyper_cases(rng):
    return [
        L.HyperParams("ce"),
        L.HyperParams("gce", q=float(rng.uniform(0.1, 0.95))),
        L.HyperParams(
            "sl",
            gamma1=float(rng.uniform(0.2, 3.0)),
            gamma2=float(rng.uniform(0.2, 3.0)),
        ),
        L.HyperParams(
            "bi_tempered",
            t1=float(rng.uniform(0.1, 0.8)),
            t2=float(rng.uniform(1.2, 2.5)),
        ),
        L.HyperParams(
            "polysoft",
            lam=float(rng.uniform(0.8, 2.5)),
            d=float(rng.uniform(1.5, 4.0)),
        ),
    ]


class TestGradientChecks:
    """Analytic gradients against central finite differences."""

    def test_grad_logits_all_families(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            c = int(rng.integers(3, 8))
            z = rng.normal(size=c) * 2.0
            label = int(rng.integers(c))
            for hyper in _hyper_cases(rng):
                ev = L.loss_on_logits(hyper, z, label)
                fd = fd_grad(lambda zz: L.loss_on_logits(hyper, zz, label).value, z)
                assert rel_err(ev.grad_logits, fd) <= 1e-5, hyper.variant

    def test_grad_hyper_gce_polysoft(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            c = int(rng.integers(3, 8))
            z = rng.normal(size=c) * 2.0
            label = int(rng.integers(c))
            p = L.softmax(z)

            q = float(rng.uniform(0.1, 0.95))
            ev = L.gce(p, label, q)
            fd = fd_grad(lambda v: L.gce(p, label, v[0]).value, np.array([q]))
            assert rel_err(ev.grad_hyper, fd) <= 1e-5

            lam = float(rng.uniform(0.8, 2.5))
            d = float(rng.uniform(1.5, 4.0))
            ce_val = L.ce(p, label).value
            ev = L.polysoft(ce_val, lam, d)
            fd = fd_grad(
                lambda v: L.polysoft(ce_val, v[0], v[1]).value, np.array([lam, d])
            )
            assert rel_err(ev.grad_hyper, fd) <= 1e-5

    def test_grad_hyper_sl_exact(self):
        # the loss is linear in (gamma1, gamma2), so a wide-step central
        # difference is exact up to rounding
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = random_probs(rng, 5)
            label = int(rng.integers(5))
            g1, g2 = rng.uniform(0.6, 3.0, size=2)
            ev = L.sl(p, label, g1, g2)
            step = 0.5
            fd1 = (L.sl(p, label, g1 + step, g2).value - L.sl(p, label, g1 - step, g2).value) / (2 * step)
            fd2 = (L.sl(p, label, g1, g2 + step).value - L.sl(p, label, g1, g2 - step).value) / (2 * step)
            assert abs(ev.grad_hyper[0] - fd1) <= 1e-12
            assert abs(ev.grad_hyper[1] - fd2) <= 1e-12

    def test_grad_hyper_bi_tempered(self):
        # grad_hyper uses step-1e-4 central differences; compare against an
        # independent evaluation at a different step
        rng = np.random.default_rng(37)
        for _ in range(30):
            c = int(rng.integers(3, 6))
            z = rng.normal(size=c) * 2.0
            label = int(rng.integers(c))
            t1 = float(rng.uniform(0.1, 0.8))
            t2 = float(rng.uniform(1.2, 2.5))
            ev = L.bi_tempered(z, label, t1, t2)
            h = 3e-5
            fd = np.array(
                [
                    (L.bi_tempered(z, label, t1 + h, t2).value - L.bi_tempered(z, label, t1 - h, t2).value) / (2 * h),
                    (L.bi_tempered(z, label, t1, t2 + h).value - L.bi_tempered(z, label, t1, t2 - h).value) / (2 * h),
                ]
            )
            assert rel_err(ev.grad_hyper, fd) <= 1e-5

    def test_values_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            c = int(rng.integers(2, 9))
            z = rng.normal(size=c) * 4.0
            label = int(rng.integers(c))
            for hyper in _hyper_cases(rng):
                assert L.loss_on_logits(hyper, z, label).value >= 0.0


class TestBatchedDispatch:
    def test_matches_single_sample(self):
        rng = np.random.default_rng(43)
        Z = rng.normal(size=(12, 5)) * 2.0
        labels = rng.integers(5, size=12)
        for hyper in _hyper_cases(rng):
            values, grads = L.batch_loss(hyper, Z, labels)
            for i in range(12):
                ev = L.loss_on_logits(hyper, Z[i], labels[i])
                assert values[i] == pytest.approx(ev.value, rel=1e-10, abs=1e-12)
                np.testing.assert_allclose(grads[i], ev.grad_logits, atol=1e-10)


def _reference_batch_loss(hyper, Z, labels):
    """batch_loss with its own per-variant formulas, as before the family kernels."""
    Z = np.asarray(Z, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n = np.arange(len(labels))
    stacked = not isinstance(hyper, L.HyperParams)
    hypers = tuple(hyper) if stacked else (hyper,)
    v = hypers[0].variant
    if stacked:
        hyper = types.SimpleNamespace(**{
            name: np.array([getattr(h, name) for h in hypers])[:, None]
            for name in L._FIELDS_READ[v]
        })
    on_classes = lambda h: np.asarray(h)[..., None]  # noqa: E731

    if v == "bi_tempered":
        K, rows = len(hypers), np.tile(labels, len(hypers))
        t1 = np.repeat([h.t1 for h in hypers], len(labels))
        t2 = np.repeat([h.t2 for h in hypers], len(labels))
        P, _ = L._tempered_softmax_batch(np.tile(Z, (K, 1)), t2)
        Pc = np.clip(P, L.PROB_FLOOR, 1.0 - L.PROB_FLOOR)
        m = np.arange(len(rows))
        log_pj = np.log(Pc[m, rows])
        s1 = 1.0 - t1
        near = np.abs(s1) < L._T_NEAR_ONE
        s1 = np.where(near, 1.0, s1)
        log_term = np.where(near, log_pj, np.expm1(s1 * log_pj) / s1)
        tail = (1.0 - (Pc ** (2.0 - t1)[:, None]).sum(axis=1)) / (2.0 - t1)
        values = np.maximum(-log_term - tail, 0.0)
        G = Pc ** (1.0 - t1 + t2)[:, None]
        G[m, rows] -= Pc[m, rows] ** (t2 - t1)
        U = Pc ** t2[:, None]
        U /= U.sum(axis=1, keepdims=True)
        grads = G - U * G.sum(axis=1, keepdims=True)
        if not stacked:
            return values, grads
        return values.reshape(K, -1), grads.reshape(K, *Z.shape)

    P = L.softmax(Z)
    Y = np.zeros_like(P)
    Y[n, labels] = 1.0
    pj = np.clip(P[n, labels], L.PROB_FLOOR, 1.0 - L.PROB_FLOOR)
    if v == "ce":
        return -np.log(pj), P - Y
    if v == "gce":
        pq = pj**hyper.q
        return (1.0 - pq) / hyper.q, pq[..., None] * (P - Y)
    if v == "sl":
        ce_vals = -np.log(pj)
        rce_vals = -hyper.rce_a * (P.sum(axis=1) - P[n, labels])
        values = hyper.gamma1 * ce_vals + hyper.gamma2 * rce_vals
        grads = on_classes(hyper.gamma1) * (P - Y) + on_classes(hyper.gamma2) * (
            on_classes(hyper.rce_a) * P[n, labels][:, None] * (Y - P)
        )
        return values, grads
    ce_vals = -np.log(pj)
    lam, d = hyper.lam, hyper.d
    inside = ce_vals < lam
    u = np.where(inside, 1.0 - ce_vals / lam, 0.0)
    r = d / (d - 1.0)
    plateau = (d - 1.0) * lam / d
    values = np.where(inside, plateau * (1.0 - u**r), plateau)
    weights = np.where(inside, u ** (r - 1.0), 0.0)
    return values, weights[..., None] * (P - Y)


def _hypergradient_probes(hyper, fd_eps=1e-3):
    theta = L.to_unconstrained(hyper)
    probes = []
    for k in range(theta.size):
        step = np.zeros_like(theta)
        step[k] = fd_eps
        probes += [L.from_unconstrained(theta + step, hyper),
                   L.from_unconstrained(theta - step, hyper)]
    return probes


class TestTrainingBits:
    """The family kernels keep the training path's bits: tolerance zero."""

    @pytest.mark.parametrize("scale", [1.0, 10.0, 40.0])
    def test_batch_loss_matches_reference(self, scale):
        rng = np.random.default_rng(int(scale) + 47)
        for c in (2, 3, 5):
            for _ in range(8):
                n = int(rng.integers(1, 33))
                Z = rng.normal(size=(n, c)) * scale
                labels = rng.integers(c, size=n)
                for hyper in _hyper_cases(rng) + [L.HyperParams("sl", gamma1=0.7, gamma2=2.0, rce_a=-1.5)]:
                    cases = [hyper] + ([_hypergradient_probes(hyper)] if hyper.learnable_names else [])
                    for h in cases:
                        values, grads = L.batch_loss(h, Z, labels)
                        ref_values, ref_grads = _reference_batch_loss(h, Z, labels)
                        assert values.tobytes() == ref_values.tobytes(), (hyper, scale)
                        assert grads.tobytes() == ref_grads.tobytes(), (hyper, scale)
