"""Unit and property tests for the robust loss families."""

import itertools
import math
import warnings
from dataclasses import replace

import kernel_reference as ref
import numpy as np
import pytest
from serial_reference import row_fields

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


CE = L.HyperParams("ce")


def value(hyper, p, label):
    """The family's value on one probability vector."""
    return float(L.loss_values(hyper, np.asarray(p, dtype=float)[None, :], label)[0])


def batch_loss(hyper, Z, labels):
    """``L.batch_loss`` on a fresh normalization of the logits ``Z``."""
    return L.batch_loss(hyper, L.normalize(hyper, Z, labels))


def batch_hgrad(hyper, Z, labels):
    """``L.batch_hgrad`` on a fresh normalization of the logits ``Z``, the value derivatives included."""
    return L.batch_hgrad(hyper, L.normalize(hyper, Z, labels), dvalues=True)


def rce(rce_a=-4.0):
    """Reverse cross entropy: sl at gammas (0, 1)."""
    return L.HyperParams("sl", gamma1=0.0, gamma2=1.0, rce_a=rce_a)


def sl(gamma1, gamma2):
    return L.HyperParams("sl", gamma1=gamma1, gamma2=gamma2)


def bi_tempered(t1, t2):
    return L.HyperParams("bi_tempered", t1=t1, t2=t2)


def random_probs(rng, c):
    p = rng.dirichlet(np.ones(c))
    # keep away from the clamp floor so finite differences stay smooth
    return (p + 0.01) / (1 + 0.01 * c)


class TestCrossEntropy:
    def test_uniform_ten_classes(self):
        assert value(CE, np.full(10, 0.1), 7) == pytest.approx(2.302585093, abs=1e-8)

    def test_confident_correct(self):
        p = np.zeros(4)
        p[2] = 1.0
        assert value(CE, p, 2) == pytest.approx(0.0, abs=1e-11)

    def test_half(self):
        assert value(CE, np.array([0.5, 0.5]), 0) == pytest.approx(0.6931471806, abs=1e-9)

    def test_grad_is_p_minus_y(self):
        p = np.array([0.6, 0.3, 0.1])
        np.testing.assert_allclose(L.loss_on_logits(CE, np.log(p), 1).grad_logits, [0.6, -0.7, 0.1])

    def test_no_hyper_grad(self):
        assert L.loss_on_logits(CE, np.zeros(2), 0).grad_hyper.size == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            L.loss_on_logits(CE, np.array([np.nan, 1.0]), 0)


class TestGeneralizedCE:
    def test_q_one_is_mae(self):
        p = np.array([0.5, 0.25, 0.25])
        assert value(L.HyperParams("gce", q=1.0), p, 0) == pytest.approx(0.5)
        for _ in range(20):
            p = random_probs(np.random.default_rng(_), 5)
            assert value(L.HyperParams("gce", q=1.0), p, 2) == pytest.approx(1.0 - p[2], abs=1e-12)

    def test_half_power(self):
        p = np.array([0.25, 0.5, 0.25])
        assert value(L.HyperParams("gce", q=0.5), p, 0) == pytest.approx(1.0)

    def test_small_q_matches_ce(self):
        # the q -> 0 limit is cross entropy; at q = 1e-4 the Taylor gap is
        # q * ln(p)^2 / 2, which peaks just above 1e-3 at p = 0.01
        for pj in np.linspace(0.01, 0.99, 40):
            p = np.array([pj, 1.0 - pj])
            gap = abs(value(L.HyperParams("gce", q=1e-4), p, 0) - value(CE, p, 0))
            assert gap <= 1.1e-3

    def test_q_domain(self):
        p = np.array([0.5, 0.5])
        for q in (0.0, -0.1, 1.5, np.nan):
            with pytest.raises(DomainError):
                value(L.HyperParams("gce", q=q), p, 0)


class TestReverseCE:
    def test_example(self):
        assert value(rce(-4.0), np.array([0.6, 0.3, 0.1]), 0) == pytest.approx(1.6)

    def test_one_hot_is_zero(self):
        p = np.zeros(5)
        p[3] = 1.0
        assert value(rce(-4.0), p, 3) == pytest.approx(0.0, abs=1e-11)

    def test_uniform_ten(self):
        assert value(rce(-4.0), np.full(10, 0.1), 4) == pytest.approx(3.6)

    def test_scale_domain(self):
        with pytest.raises(DomainError):
            value(rce(0.0), np.array([0.5, 0.5]), 0)
        with pytest.raises(DomainError):
            value(rce(4.0), np.array([0.5, 0.5]), 0)


class TestSymmetricLoss:
    def test_reductions(self):
        rng = np.random.default_rng(0)
        p = random_probs(rng, 4)
        assert value(sl(1.0, 0.0), p, 1) == pytest.approx(value(CE, p, 1))
        assert value(sl(0.0, 1.0), p, 1) == pytest.approx(value(rce(), p, 1))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = np.log(random_probs(rng, 6))  # logits whose softmax is the drawn p
            v_ce = L.loss_on_logits(CE, z, 2).value
            v_rce = L.loss_on_logits(rce(), z, 2).value
            ev = L.loss_on_logits(sl(2.0, 3.0), z, 2)
            assert ev.value == pytest.approx(2.0 * v_ce + 3.0 * v_rce, rel=1e-12)
            np.testing.assert_allclose(ev.grad_hyper, [v_ce, v_rce])

    def test_negative_gamma(self):
        with pytest.raises(DomainError):
            value(sl(-1.0, 1.0), np.array([0.5, 0.5]), 0)


class TestTemperedMath:
    """The tempered logarithm from log x, and the tempered exponential (1 + s x)^(1/s), s = 1 - t."""

    def test_log_t_at_one_arg(self):
        for t in (0.0, 0.5, 1.5, 2.5):
            assert L._log_t_of_log(0.0, t) == pytest.approx(0.0, abs=1e-12)

    def test_log_t_example(self):
        assert L._log_t_of_log(math.log(4.0), 0.5) == pytest.approx(2.0)

    def test_log_t_near_one(self):
        assert L._log_t_of_log(1.0, 1.0 - 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_exp_t_at_zero(self):
        for t in (0.0, 0.5, 1.5, 2.5):
            assert L._exp_t_neg_args(0.0, 1.0 - t) == pytest.approx(1.0)

    def test_exp_t_example(self):
        assert L._exp_t_neg_args(-1.0, -1.0) == pytest.approx(0.5)

    def test_exp_t_matches_masked_formula_bitwise(self):
        # the masked form, log1p where the base 1 + (1-t) x is positive; the
        # solve's bases are >= 1, so only positive bases are compared
        def masked(x, t):
            s = 1.0 - t
            pos = 1.0 + s * x > 0.0
            return np.exp(np.log1p(s * x[pos]) / s), pos

        mags = np.geomspace(1e-300, 1e308, 400)
        common = np.concatenate([-mags, [0.0], mags, np.linspace(-50.0, 50.0, 1001)])
        # 1 - t a power of two puts the base exactly at 0 on x = -1/(1-t)
        exact = [0.0, 0.5, 0.75, 1.5, 2.0, 3.0, 5.0, 9.0]
        ts = np.concatenate([np.linspace(0.0, 10.0, 201), exact, [1.0 + 1e-6]])
        for t in ts[ts != 1.0]:
            edge = -1.0 / (1.0 - t)  # the base's zero and its neighbours
            xs = np.concatenate([common, [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]])
            with np.errstate(over="ignore"):
                want, pos = masked(xs, t)
                got = L._exp_t_neg_args(xs[pos], 1.0 - t)
            assert got.tobytes() == want.tobytes(), t

    def test_roundtrip(self):
        ts = list(np.linspace(0.0, 0.9, 7)) + list(np.linspace(1.1, 3.0, 7))
        for t in ts:
            for x in np.geomspace(1e-4, 1.0, 25):
                back = L._exp_t_neg_args(L._log_t_of_log(math.log(x), t), 1.0 - t)
                assert abs(back - x) <= 1e-10


class TestTemperedSoftmax:
    """The normalization solve on one row of logits."""

    def test_symmetry(self):
        P, gamma = L._tempered_softmax_batch(np.full((1, 4), 2.0), 1.7)
        np.testing.assert_allclose(P[0], 0.25, atol=1e-12)
        assert gamma[0] >= 2.0

    def test_matches_softmax_near_t2_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.normal(size=6) * 2.0
            P, _ = L._tempered_softmax_batch(z[None, :], 1.0 + 1e-8)
            assert rel_err(P[0], L.softmax(z)) <= 1e-6

    def test_normalization(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = rng.normal(size=rng.integers(2, 12)) * rng.uniform(0.5, 8.0)
            t2 = rng.uniform(1.05, 3.0)
            P, gamma = L._tempered_softmax_batch(z[None, :], t2)
            assert abs(P[0].sum() - 1.0) <= 1e-10
            assert gamma[0] >= z.max()

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            z = rng.normal(size=(1, 5)) * 3.0
            shift = rng.uniform(-50.0, 50.0)
            P0, g0 = L._tempered_softmax_batch(z, 2.0)
            P1, g1 = L._tempered_softmax_batch(z + shift, 2.0)
            assert np.max(np.abs(P0 - P1)) <= 1e-9
            assert g1[0] - g0[0] == pytest.approx(shift, abs=1e-9)


def _bisect_reference(Z, t2):
    """Reference normalization: bracket doubling, then bisection to 1e-12."""
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
    @pytest.mark.parametrize("t2", [1 - 1e-6, 1 + 1e-8, 1 + 1e-6, 1.01, 1.5, 4.0, 10.0])
    def test_matches_bisection(self, t2, solve_passes):
        passes = solve_passes
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
        t2 = rng.choice([1 + 1e-9, 1.01, 1.5, 4.0, 10.0], size=40)
        Z = rng.normal(size=(40, 4)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1))
        P, gamma = L._tempered_softmax_batch(Z, t2)
        for i in range(len(Z)):
            P_i, gamma_i = L._tempered_softmax_batch(Z[i:i + 1], t2[i])
            assert np.array_equal(P[i], P_i[0])
            assert gamma[i] == gamma_i[0]

    def test_step_cap_raises_with_context(self, monkeypatch):
        monkeypatch.setattr(L, "_NEWTON_MAX_STEPS", 2)
        Z = np.array([[0.0, -500.0, 1000.0]])
        with pytest.raises(NumericError, match=r"in 2 steps: row 0 of 1 \(1 not stopped\), t2=10\.0, "
                                               r"\|sum p - 1\| = \d\.\d{3}e[-+]\d\d, logits \[0\.0, -500\.0, 1000\.0\]$"):
            L._tempered_softmax_batch(Z, 10.0)

    def test_step_cap_names_the_first_failing_row(self):
        # per-row t2: the error names the first row that did not stop, its t2 alone and its logits
        rng = np.random.default_rng(64)
        Z = rng.normal(size=(6, 3)) * 2.0
        t2 = np.array([1.5, 2.5, 4.0, 1.25, 3.0, 1.75])
        start = L._tempered_softmax_batch(Z, t2)[1]
        start[[2, 4]] = np.nan
        with pytest.raises(NumericError, match=r"row 2 of 6 \(2 not stopped\), t2=4\.0, \|sum p - 1\| = nan, ") as info:
            L._tempered_softmax_batch(Z, t2, start)
        message = str(info.value)
        assert message.endswith(f"logits {Z[2].tolist()}")
        assert message.count("t2=") == 1

    @pytest.mark.parametrize("t2", [1.000099, 1.0000995])
    def test_probe_just_below_one(self, t2):
        # t2 within 1e-4 of 1: the solve needs log1p and the t2 derivative
        # its Taylor series
        rng = np.random.default_rng(41)
        for _ in range(200):
            z = rng.normal(size=int(rng.integers(2, 8))) * rng.uniform(0.5, 8.0)
            ev = L.loss_on_logits(bi_tempered(0.5, t2), z, 0)
            assert np.isfinite(ev.value) and np.all(np.isfinite(ev.grad_hyper))


class TestWarmStart:
    """A solve from a start, as a bilevel step's second solve takes its first solve's roots,
    against the cold solve from max z."""

    @pytest.mark.parametrize("t2, source", [
        (1.5, 1.506), (1.5, 1.494), (1.01, 1.0101), (1.01, 1.0099), (4.0, 4.04), (4.0, 3.96),
        (1.01, 10.0), (10.0, 1.01), (4.0, 1.0 + 1e-8), (1.0 + 1e-8, 4.0),
        *[(t2, start) for t2 in (1.0 + 1e-8, 1.5, 10.0) for start in ("1e6", "-1e6", "inf")],
    ])
    def test_matches_cold_solve(self, t2, source, solve_passes):
        # source: the roots at another t2, or one start for every row
        passes = solve_passes
        rng = np.random.default_rng(61)
        for scale in np.geomspace(1e-3, 1e3, 7):
            for c in (2, 3, 10):
                Z = rng.normal(size=(20, c)) * scale
                if isinstance(source, str):
                    start = np.full(len(Z), float(source))
                else:
                    start = L._tempered_softmax_batch(Z, source)[1]
                passes[0] = 0
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    P, gamma = L._tempered_softmax_batch(Z, t2, start)
                assert passes[0] <= 20, (scale, c)
                P_cold, gamma_cold = L._tempered_softmax_batch(Z, t2)
                assert np.max(np.abs(P - P_cold)) <= 1e-12
                assert np.all(np.abs(gamma - gamma_cold) <= 1e-12 * np.abs(gamma_cold))

    def test_stacked_rows_match_single_rows(self):
        rng = np.random.default_rng(62)
        t2s = [1.0 + 1e-8, 1.01, 1.5, 4.0, 10.0]
        t2 = rng.choice(t2s, size=40)
        Z = rng.normal(size=(40, 4)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1))
        start = L._tempered_softmax_batch(Z, rng.choice(t2s, size=len(Z)))[1]
        start[::5], start[1::5] = np.inf, -1e6
        P, gamma = L._tempered_softmax_batch(Z, t2, start)
        for i in range(len(Z)):
            P_i, gamma_i = L._tempered_softmax_batch(Z[i:i + 1], t2[i], start[i:i + 1])
            assert np.array_equal(P[i], P_i[0]) and gamma[i] == gamma_i[0], i

    def test_nan_start_never_converges(self):
        # a NaN start gives NaN steps, which never pass the stop test: the row stays
        # active to the step cap instead of returning NaN roots, and the rest solve alone
        rng = np.random.default_rng(63)
        Z = rng.normal(size=(8, 3)) * 2.0
        start = L._tempered_softmax_batch(Z, 1.5)[1]
        start[3] = np.nan
        with pytest.raises(NumericError, match=r"did not converge in 50 steps: row 3 of 8 \(1 not stopped\), t2=1\.6, "):
            L._tempered_softmax_batch(Z, 1.6, start)
        keep = np.arange(len(Z)) != 3
        P, gamma = L._tempered_softmax_batch(Z[keep], 1.6, start[keep])
        assert np.all(np.isfinite(gamma)) and np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12


class TestTemperedReference:
    """The solve and the tempered log against ``kernel_reference``'s, which take the t = 1
    limit within 1e-8 of 1.  Outside that band the tempered log has the same bits, and the
    solve, Newton on log_t2 of the partition sum against the reference's Newton on the sum,
    agrees within 1e-12 in P and 1e-14 max(1, |gamma|) in gamma (2.3e-13 and 3.1e-15 measured
    on these inputs); inside the band the solve has the softmax's values."""

    SCALES = np.geomspace(1e-3, 1e3, 7)

    @pytest.mark.parametrize("c", [2, 3, 10])
    def test_solve_within_tolerance_outside_band(self, c):
        rng = np.random.default_rng(70 + c)
        t2s = np.concatenate([[1.0 + 2e-8, 1.0 + 1e-6, 1.01, 1.2, 1.5, 2.0, 4.0, 10.0],
                              rng.uniform(1.0 + 2e-8, 3.0, size=8)])
        for scale in self.SCALES:
            Z = rng.normal(size=(12, c)) * scale
            for t2 in [float(t) for t in t2s] + [rng.choice(t2s, size=len(Z))]:  # scalars, then one per row
                (P, gamma), (P_ref, gamma_ref) = L._tempered_softmax_batch(Z, t2), ref.tempered_softmax(Z, t2)
                assert np.max(np.abs(P - P_ref)) <= 1e-12, (scale, t2)
                assert np.all(np.abs(gamma - gamma_ref) <= 1e-14 * np.maximum(1.0, np.abs(gamma_ref))), (scale, t2)

    def test_log_t_bits_outside_band(self):
        rng = np.random.default_rng(74)
        log_x = np.log(rng.uniform(1e-12, 1.0, size=64))
        ts = np.concatenate([[0.0, 0.5, 1.0 - 1e-3, 1.0 - 2e-8], rng.uniform(0.0, 1.0 - 2e-8, size=16)])
        for t in [float(t) for t in ts] + [rng.choice(ts, size=len(log_x))]:
            assert np.array_equal(L._log_t_of_log(log_x, t), ref.log_t_of_log(log_x, t))

    @pytest.mark.parametrize("t2", [1.0 + 1e-15, 1.0 + 1e-9, 1.0 + 9.9e-9])
    def test_band_rows_near_softmax(self, t2):
        rng = np.random.default_rng(75)
        for scale in self.SCALES:
            for c in (2, 3, 10):
                Z = rng.normal(size=(12, c)) * scale
                P, _ = L._tempered_softmax_batch(Z, t2)
                P_ref, _ = ref.tempered_softmax(Z, t2)  # the softmax in the band
                assert np.max(np.abs(P - P_ref)) <= 1e-6

    @pytest.mark.parametrize("t2", [1.0 + 2.2e-16, 1.0 + 1e-15])
    def test_no_warning_next_to_one(self, t2):
        rng = np.random.default_rng(76)
        for c in (2, 3, 10):
            Z = rng.normal(size=(20, c)) * 1e3
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                P, gamma = L._tempered_softmax_batch(Z, t2)
            assert np.all(np.isfinite(P)) and np.all(np.isfinite(gamma))
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12


class TestBiTemperedBits:
    """The bi_tempered path against ``kernel_reference``'s plain form of it, byte for byte: the
    solve's P and gamma, cold and warm, and the kernels' values, logit gradients, value and
    gradient derivatives and dgamma/dt2, at scalar and per-row fields."""

    SCALES = np.geomspace(1e-3, 1e3, 7)
    T2S = (1.0 + 1e-8, 1.01, 1.5, 2.0, 4.0, 10.0)

    @staticmethod
    def assert_bytes(got, want, what):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), what

    def batches(self, rng, c, n=14):
        """Logits at each scale alone, then a batch of rows at every scale."""
        for scale in self.SCALES:
            yield scale, rng.normal(size=(n, c)) * scale
        yield "mixed", rng.normal(size=(n, c)) * rng.choice(self.SCALES, size=(n, 1))

    @pytest.mark.parametrize("c", [2, 3, 5, 10])
    def test_solve_cold_and_warm(self, c):
        rng = np.random.default_rng(80 + c)
        for scale, Z in self.batches(rng, c):
            for t2 in [*self.T2S, rng.choice(self.T2S, size=len(Z))]:  # scalars, then one per row
                nearby = ref.tempered_softmax_newton(Z, 1.0 + (np.asarray(t2) - 1.0) * 1.1)[1]
                far = np.where(rng.random(len(Z)) < 0.5, np.inf, -1e6)
                for start in (None, nearby, far):
                    P, gamma = L._tempered_softmax_batch(Z, t2, start)
                    P_ref, gamma_ref = ref.tempered_softmax_newton(Z, t2, start)
                    self.assert_bytes(P, P_ref, (scale, t2, start))
                    self.assert_bytes(gamma, gamma_ref, (scale, t2, start))

    def test_rows_that_stop_at_different_passes(self, solve_passes):
        rng = np.random.default_rng(85)
        Z = rng.normal(size=(14, 3)) * self.SCALES[np.arange(14) % 7, None]
        t2 = rng.choice(self.T2S, size=len(Z))
        alone = []
        for i in range(len(Z)):
            solve_passes[0] = 0
            L._tempered_softmax_batch(Z[i:i + 1], t2[i])
            alone.append(solve_passes[0])
        assert len(set(alone)) >= 3, alone  # frozen rows beside active ones, over several passes
        start = ref.tempered_softmax_newton(Z, t2 + 0.05)[1]
        for t2_, start_ in ((t2, None), (t2, start), (2.0, None), (2.0, start)):
            P, gamma = L._tempered_softmax_batch(Z, t2_, start_)
            P_ref, gamma_ref = ref.tempered_softmax_newton(Z, t2_, start_)
            self.assert_bytes(P, P_ref, (t2_, start_))
            self.assert_bytes(gamma, gamma_ref, (t2_, start_))

    def check_kernels(self, fields, t1, t2, P, gamma, labels, what):
        """``batch_hgrad`` (with and without the value derivatives) and ``batch_loss`` on a fresh
        record against the reference at (t1, t2)."""
        values, grads, dvalues, dgrads, dgamma = ref.bi_tempered(P, labels, t1, t2)
        for want_dvalues in (True, False):
            batch = L._Batch(P, labels, gamma)
            got = L.batch_hgrad(fields, batch, dvalues=want_dvalues)
            for name, a, b in zip(("values", "grads", "dvalues", "dgrads"), got, (values, grads, dvalues, dgrads)):
                if name != "dvalues" or want_dvalues:
                    self.assert_bytes(a, b, (name, what))
            assert want_dvalues or got[2] is None
            self.assert_bytes(batch.dgamma_dt2, dgamma, ("dgamma_dt2", what))
        for a, b, name in zip(L.batch_loss(fields, L._Batch(P, labels, gamma)), (values, grads), ("values", "grads")):
            self.assert_bytes(a, b, (name, "batch_loss", what))

    @pytest.mark.parametrize("c", [2, 3, 5, 10])
    def test_kernels(self, c):
        rng = np.random.default_rng(90 + c)
        clamped = 0
        for scale, Z in self.batches(rng, c):
            labels = rng.integers(0, c, size=len(Z))
            for t1, t2 in [(0.5, 1.5), (0.0, 1.0 + 1e-8), (0.3, 10.0), (0.99, 1.01)]:
                P, gamma = L._tempered_softmax_batch(Z, t2)
                clamped += np.count_nonzero(P != ref.clamp(P))
                self.check_kernels(bi_tempered(t1, t2), t1, t2, P, gamma, labels, (scale, t1, t2))
            t1, t2 = rng.choice([0.0, 0.3, 0.5, 0.99], size=len(Z)), rng.choice(self.T2S, size=len(Z))
            P, gamma = L._tempered_softmax_batch(Z, t2)
            fields = row_fields([bi_tempered(a, b) for a, b in zip(t1.tolist(), t2.tolist())], rows=1)
            self.check_kernels(fields, t1, t2, P, gamma, labels, (scale, "per row"))
        assert clamped > 0  # the 1e-12 clamp bites at the large scales

    def test_special_exponents_stacked(self):
        # rows whose exponents are numpy's special ones: 2 - t1 = 2 and t2 = 2 at t1 = 0, 1 - t1 + t2 = 2,
        # t2 - 1 and 1 - t1 = 1/2 at (0.5, 1.5), t2 - t1 = 1/2 at (0.75, 1.25), t2 - 1 = 2 at t2 = 3
        rng = np.random.default_rng(95)
        hypers = [bi_tempered(*f) for f in ((0.0, 2.0), (0.5, 1.5), (0.75, 1.25), (0.0, 3.0), (0.3, 1.7))]
        rows = 4
        Z = rng.normal(size=(rows * len(hypers), 3)) * 3.0
        labels = rng.integers(0, 3, size=len(Z))
        t1 = np.repeat([h.t1 for h in hypers], rows)
        t2 = np.repeat([h.t2 for h in hypers], rows)
        for start in (None, ref.tempered_softmax_newton(Z, t2 + 0.01)[1]):
            P, gamma = L._tempered_softmax_batch(Z, t2, start)
            P_ref, gamma_ref = ref.tempered_softmax_newton(Z, t2, start)
            self.assert_bytes(P, P_ref, start is None)
            self.assert_bytes(gamma, gamma_ref, start is None)
        self.check_kernels(row_fields(hypers, rows), t1, t2, P, gamma, labels, "stacked")

    def test_values_at_label_columns(self):
        # the theory table's form: one label for all rows, or a (k, 1) column of labels
        rng = np.random.default_rng(96)
        P = L._tempered_softmax_batch(rng.normal(size=(9, 5)) * 30.0, 1.5)[0]
        for labels in (2, np.arange(5)[:, None]):
            self.assert_bytes(L.loss_values(bi_tempered(0.3, 1.5), P, labels),
                              ref.bi_tempered_values(P, labels, 0.3), labels)

    def test_expm1_excess(self):
        rng = np.random.default_rng(97)
        small = rng.uniform(-1e-2, 1e-2, size=(8, 3)) * 0.99
        large = rng.choice([-1.0, 1.0], size=(8, 3)) * rng.uniform(1e-2, 30.0, size=(8, 3))
        mixed = np.where(rng.random((8, 3)) < 0.5, small, large)
        edges = np.array([0.0, -0.0, 1e-2, -1e-2, np.nextafter(1e-2, 0.0), -40.0])
        for x in (small, large, mixed, edges, np.zeros(3)):
            self.assert_bytes(L._expm1_excess(x), ref.expm1_excess(x), x)
        assert L._expm1_excess(np.zeros(1))[0] == 0.5


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
            ref = value(CE, L.softmax(z), 1)
            got = L.loss_on_logits(bi_tempered(1.0 - 1e-6, 1.0 + 1e-6), z, 1).value
            assert abs(got - ref) <= 1e-4

    def test_confident_prediction_small(self):
        # with t2 = 2 the tails decay as a power law, so a +20 margin over
        # nine classes still leaves ~41% of the mass off-label and a loss
        # of ~0.16; the loss decays to 0 only as the margin grows further
        z = np.zeros(10)
        z[4] = 20.0
        v20 = L.loss_on_logits(bi_tempered(0.5, 2.0), z, 4).value
        assert v20 <= 0.2
        z[4] = 1e5
        assert L.loss_on_logits(bi_tempered(0.5, 2.0), z, 4).value <= 1e-3
        assert L.loss_on_logits(bi_tempered(0.5, 2.0), z, 4).value < v20
        # in the light-tailed t2 -> 1 limit, +20 is already conclusive
        z[4] = 20.0
        assert L.loss_on_logits(bi_tempered(0.5, 1.0 + 1e-9), z, 4).value <= 1e-3

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
            v = L.loss_on_logits(bi_tempered(t1, t2), z, int(rng.integers(c))).value
            assert 0.0 <= v <= bound

    def test_domain(self):
        z = np.zeros(3)
        with pytest.raises(DomainError):
            L.loss_on_logits(bi_tempered(1.0, 2.0), z, 0)
        with pytest.raises(DomainError):
            L.loss_on_logits(bi_tempered(0.5, 1.0), z, 0)
        with pytest.raises(DomainError):
            L.loss_on_logits(bi_tempered(-0.1, 2.0), z, 0)


class TestPolySoft:
    def test_plateau(self):
        assert L.polysoft_of_ce(2.0, 1.0, 2.0)[0] == pytest.approx(0.5)

    def test_zero(self):
        assert L.polysoft_of_ce(0.0, 1.0, 2.0)[0] == pytest.approx(0.0)

    def test_interior(self):
        assert L.polysoft_of_ce(0.75, 1.0, 2.0)[0] == pytest.approx(0.46875)

    def test_weight_examples(self):
        assert L.polysoft_weight(0.75, 1.0, 2.0) == pytest.approx(0.25)
        assert L.polysoft_weight(1.0, 1.0, 2.0) == 0.0
        assert L.polysoft_weight(5.0, 1.0, 2.0) == 0.0
        assert L.polysoft_weight(0.0, 1.0, 2.0) == pytest.approx(1.0)

    def test_continuous_nondecreasing(self):
        lam, d = 1.3, 2.5
        ce_grid = np.linspace(0.0, 3.0 * lam, 800)
        vals = L.polysoft_of_ce(ce_grid, lam, d)[0]
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
            fd = (L.polysoft_of_ce(ce_val + h, lam, d)[0] - L.polysoft_of_ce(ce_val - h, lam, d)[0]) / (2 * h)
            assert fd == pytest.approx(L.polysoft_weight(ce_val, lam, d), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            L.polysoft_weight(1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            L.polysoft_weight(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            L.polysoft_weight(-0.5, 1.0, 2.0)


class TestReparameterization:
    """The runs' map and its derivative over an (R, K) theta, each entry with the
    bits of the scalar map of ``kernel_reference``."""

    LIKES = [L.default_hyper(variant, 3) for variant in ("gce", "sl", "bi_tempered", "polysoft")]

    def test_theta_zero_slots(self):
        assert L.from_unconstrained("gce", np.zeros((1, 1)))[0, 0] == pytest.approx(L.EPS_Q + (1.0 - L.EPS_Q) / 2.0)
        np.testing.assert_allclose(L.from_unconstrained("sl", np.zeros((2, 2))), math.log(2.0))

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
            back = L.from_unconstrained(h.variant, L.to_unconstrained(h)[None])
            np.testing.assert_allclose(back[0], h.learnable_values(), rtol=0, atol=1e-10)

    def test_always_feasible(self):
        rng = np.random.default_rng(17)
        for like in self.LIKES:
            theta = rng.normal(size=(50, len(like.learnable_names))) * 10.0
            for values in L.from_unconstrained(like.variant, theta):
                replace(like, **dict(zip(like.learnable_names, values.tolist())))

    def test_boundary_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            theta = L.to_unconstrained(L.HyperParams("gce", q=1.0))
        assert abs(L.from_unconstrained("gce", theta[None])[0, 0] - 1.0) <= 1e-10
        with pytest.warns(UserWarning):
            theta = L.to_unconstrained(L.HyperParams("sl", gamma1=0.0))
        assert abs(L.from_unconstrained("sl", theta[None])[0, 0]) <= 1e-10

    def test_scale_matches_fd(self):
        rng = np.random.default_rng(19)
        for like in self.LIKES:
            theta = rng.normal(size=(10, len(like.learnable_names))) * 2.0
            scale = L.reparam_scale(like.variant, theta)
            for k in range(theta.shape[1]):
                e = np.zeros_like(theta)
                e[:, k] = 1e-6
                fd = (L.from_unconstrained(like.variant, theta + e) - L.from_unconstrained(like.variant, theta - e))
                np.testing.assert_allclose(fd[:, k] / 2e-6, scale[:, k], rtol=1e-6)

    # +-40, 0 and a few normals; -40 and -800 round d and t2 (1 + softplus) onto 1.0, and -800 lam
    # (softplus) onto 0.0; math and numpy round exp of N(0, 3) apart on some 5% of inputs
    SWEEP = np.concatenate([[-800.0, -40.0, -37.5, -1e-300, 0.0, 1e-300, 36.0, 40.0, 800.0],
                            np.random.default_rng(71).normal(size=200) * 3.0])

    @pytest.mark.parametrize("like", LIKES, ids=lambda h: h.variant)
    def test_map_bits_are_the_scalar_maps(self, like):
        K = len(like.learnable_names)
        rng = np.random.default_rng(72)
        theta = np.stack([rng.permutation(self.SWEEP) for _ in range(K)], axis=1)
        want, inside = [], []
        for th in theta:
            want.append(ref.reparam_scale(like, th))
            try:
                inside.append(ref.from_unconstrained(th, like).learnable_values())
            except DomainError:
                inside.append(None)
        for rows in [slice(r, r + 1) for r in range(len(theta))] + [slice(None)]:
            got = L.reparam_scale(like.variant, theta[rows])
            assert got.shape == theta[rows].shape and got.tobytes() == np.array(want[rows]).tobytes()
        for r, values in enumerate(inside):  # one row alone
            if values is None:
                with pytest.raises(DomainError, match="outside its domain") as info:
                    L.from_unconstrained(like.variant, theta[r:r + 1])
                assert info.value.row == 0
            else:
                assert L.from_unconstrained(like.variant, theta[r:r + 1])[0].tobytes() == values.tobytes()
        ok = [r for r, values in enumerate(inside) if values is not None]
        got = L.from_unconstrained(like.variant, theta[ok])  # stacked
        assert got.tobytes() == np.array([inside[r] for r in ok]).tobytes()
        if len(ok) < len(theta):  # the stack names its first run outside, and the field
            first = next(r for r, values in enumerate(inside) if values is None)
            with pytest.raises(DomainError) as info:
                L.from_unconstrained(like.variant, theta)
            assert info.value.row == first
            with pytest.raises(DomainError) as alone:
                ref.from_unconstrained(theta[first], like)
            assert str(info.value) == str(alone.value)


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
            ev = L.loss_on_logits(L.HyperParams("gce", q=q), z, label)
            fd = fd_grad(lambda v: value(L.HyperParams("gce", q=v[0]), p, label), np.array([q]))
            assert rel_err(ev.grad_hyper, fd) <= 1e-5

            lam = float(rng.uniform(0.8, 2.5))
            d = float(rng.uniform(1.5, 4.0))
            ce_val = value(CE, p, label)
            ev = L.loss_on_logits(L.HyperParams("polysoft", lam=lam, d=d), z, label)
            fd = fd_grad(
                lambda v: L.polysoft_of_ce(ce_val, v[0], v[1])[0], np.array([lam, d])
            )
            assert rel_err(ev.grad_hyper, fd) <= 1e-5

    def test_grad_hyper_sl_exact(self):
        # the loss is linear in (gamma1, gamma2), so a wide-step central
        # difference is exact up to rounding
        rng = np.random.default_rng(31)
        for _ in range(100):
            z = np.log(random_probs(rng, 5))  # logits whose softmax is the drawn p
            label = int(rng.integers(5))
            g1, g2 = rng.uniform(0.6, 3.0, size=2)
            ev = L.loss_on_logits(sl(g1, g2), z, label)
            step = 0.5
            v = lambda h: L.loss_on_logits(h, z, label).value  # noqa: E731
            fd1 = (v(sl(g1 + step, g2)) - v(sl(g1 - step, g2))) / (2 * step)
            fd2 = (v(sl(g1, g2 + step)) - v(sl(g1, g2 - step))) / (2 * step)
            assert abs(ev.grad_hyper[0] - fd1) <= 1e-12
            assert abs(ev.grad_hyper[1] - fd2) <= 1e-12

    def test_grad_hyper_bi_tempered(self):
        # grad_hyper is closed form through the normalization; compare it
        # against central differences of the value
        rng = np.random.default_rng(37)
        for _ in range(30):
            c = int(rng.integers(3, 6))
            z = rng.normal(size=c) * 2.0
            label = int(rng.integers(c))
            t1 = float(rng.uniform(0.1, 0.8))
            t2 = float(rng.uniform(1.2, 2.5))
            ev = L.loss_on_logits(bi_tempered(t1, t2), z, label)
            h = 3e-5
            v = lambda t1, t2: L.loss_on_logits(bi_tempered(t1, t2), z, label).value  # noqa: E731
            fd = np.array(
                [
                    (v(t1 + h, t2) - v(t1 - h, t2)) / (2 * h),
                    (v(t1, t2 + h) - v(t1, t2 - h)) / (2 * h),
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
            values, grads = batch_loss(hyper, Z, labels)
            for i in range(12):
                ev = L.loss_on_logits(hyper, Z[i], labels[i])
                assert values[i] == pytest.approx(ev.value, rel=1e-10, abs=1e-12)
                np.testing.assert_allclose(grads[i], ev.grad_logits, atol=1e-10)

    def test_single_row_is_batch_hgrad_row(self):
        # loss_on_logits is batch_hgrad on one row, and a row evaluates to
        # the same bits alone or in a batch
        rng = np.random.default_rng(44)
        for _ in range(100):
            c = int(rng.integers(2, 8))
            Z = rng.normal(size=(6, c)) * rng.uniform(0.5, 8.0)
            labels = rng.integers(c, size=6)
            for hyper in _hyper_cases(rng):
                values, grads, dvalues, _ = batch_hgrad(hyper, Z, labels)
                for i in range(len(Z)):
                    ev = L.loss_on_logits(hyper, Z[i], labels[i])
                    assert ev.value == values[i], hyper
                    assert np.array_equal(ev.grad_logits, grads[i]), hyper
                    assert np.array_equal(ev.grad_hyper, dvalues[:, i]), hyper

    @pytest.mark.parametrize("z", [np.zeros(1), np.zeros((2, 3)), np.array([0.0, np.inf])])
    def test_rejects_bad_logits(self, z):
        with pytest.raises(DomainError, match="finite vector of length >= 2"):
            L.loss_on_logits(CE, z, 0)

    def test_rejects_bad_label(self):
        with pytest.raises(DomainError, match="label 3 out of range for 3 classes"):
            L.loss_on_logits(CE, np.zeros(3), 3)


def _reference_batch_loss(hyper, Z, labels):
    """batch_loss with its own per-variant formulas, as before the family kernels."""
    Z = np.asarray(Z, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n = np.arange(len(labels))
    v = hyper.variant
    on_classes = lambda h: np.asarray(h)[..., None]  # noqa: E731

    if v == "bi_tempered":
        # scalar fields: scalar powers, numpy's square at an exponent of 2
        t1, t2 = hyper.t1, hyper.t2
        P, _ = L._tempered_softmax_batch(Z, t2)
        Pc = np.clip(P, L.PROB_FLOOR, 1.0 - L.PROB_FLOOR)
        log_pj = np.log(Pc[n, labels])
        s1 = 1.0 - t1
        log_term = np.expm1(s1 * log_pj) / s1
        tail = (1.0 - (Pc ** (2.0 - t1)).sum(axis=1)) / (2.0 - t1)
        values = np.maximum(-log_term - tail, 0.0)
        G = Pc ** (1.0 - t1 + t2)
        G[n, labels] -= Pc[n, labels] ** (t2 - t1)
        U = Pc ** t2
        U /= U.sum(axis=1, keepdims=True)
        return values, G - U * G.sum(axis=1, keepdims=True)

    P = ref.softmax(Z)
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
                # constant exponents of 2: 1 - t1 + t2 at the bi_tempered default, and t2
                extra = [L.HyperParams("sl", gamma1=0.7, gamma2=2.0, rce_a=-1.5),
                         L.HyperParams("bi_tempered"), L.HyperParams("bi_tempered", t1=0.5, t2=2.0)]
                for hyper in _hyper_cases(rng) + extra:
                    values, grads = batch_loss(hyper, Z, labels)
                    ref_values, ref_grads = _reference_batch_loss(hyper, Z, labels)
                    assert values.tobytes() == ref_values.tobytes(), (hyper, scale)
                    assert grads.tobytes() == ref_grads.tobytes(), (hyper, scale)

    @pytest.mark.parametrize("shape", [(4,), (1, 3), (7, 2), (16, 5), (3, 16, 3)])
    def test_softmax_matches_reference(self, shape):
        rng = np.random.default_rng(48)
        for scale in (1e-3, 1.0, 40.0, 1e3):
            Z = rng.normal(size=shape) * scale
            Z[..., 0] = Z[..., -1]  # a tie for the maximum in some rows
            assert np.array_equal(L.softmax(Z), ref.softmax(Z)), scale

    @pytest.mark.parametrize("labels", ["rows", "scalar", "column"])
    @pytest.mark.parametrize("n", [1, 7, 16])
    def test_p_minus_y_matches_reference(self, labels, n):
        # a (k, 1) column of labels gives (k, n, c), one P - Y per label
        rng = np.random.default_rng(49)
        for c in (2, 3, 5):
            P = ref.softmax(rng.normal(size=(n, c)) * 3.0)
            y = {"rows": rng.integers(c, size=n), "scalar": int(rng.integers(c)),
                 "column": rng.integers(c, size=(4, 1))}[labels]
            D = L._Batch(P, y).D
            assert D.shape == ((4, n, c) if labels == "column" else (n, c))
            assert np.array_equal(D, ref.p_minus_y(P, y)), c


def _fd_in_field(hyper, name, Z, labels, step):
    """Central differences of batch_loss's values and gradients in one field."""
    x = getattr(hyper, name)
    up = batch_loss(replace(hyper, **{name: x + step}), Z, labels)
    dn = batch_loss(replace(hyper, **{name: x - step}), Z, labels)
    return (up[0] - dn[0]) / (2 * step), (up[1] - dn[1]) / (2 * step)


def _scaled_err(got, fd, f):
    """|got - fd| relative to |fd| + |f|: the rounding of a difference
    quotient scales with the size of the function f it differences."""
    return np.linalg.norm(got - fd) / max(np.linalg.norm(fd) + np.linalg.norm(f), 1e-12)


class TestHgrad:
    """Closed-form hyperparameter derivatives against central differences."""

    BOUNDS = {"gce": 1e-8, "sl": 1e-10, "bi_tempered": 1e-8, "polysoft": 1e-6}

    def test_matches_central_differences(self):
        rng = np.random.default_rng(53)
        worst = dict.fromkeys(self.BOUNDS, 0.0)
        for _ in range(200):
            c = int(rng.choice([2, 3, 5, 10]))
            Z = rng.normal(size=(6, c)) * rng.uniform(0.3, 10.0)
            labels = rng.integers(c, size=6)
            for hyper in _hyper_cases(rng)[1:]:
                v = hyper.variant
                values, grads, dvalues, dgrads = batch_hgrad(hyper, Z, labels)
                assert dvalues.shape == (2 if v != "gce" else 1, 6)
                assert dgrads.shape == dvalues.shape + (c,)
                keep = np.ones(6, dtype=bool)
                if v == "polysoft":  # the derivatives in lam jump at the kink ce = lam
                    ce_vals, _ = batch_loss(L.HyperParams("ce"), Z, labels)
                    keep = np.abs(ce_vals - hyper.lam) >= 1e-3 * hyper.lam
                    if not keep.any():
                        continue
                for k, name in enumerate(hyper.learnable_names):
                    fd_values, fd_grads = _fd_in_field(hyper, name, Z, labels, 1e-5)
                    worst[v] = max(
                        worst[v],
                        _scaled_err(dvalues[k][keep], fd_values[keep], values[keep]),
                        _scaled_err(dgrads[k][keep], fd_grads[keep], grads[keep]),
                    )
        for v, bound in self.BOUNDS.items():
            assert worst[v] <= bound, (v, worst[v])

    def test_value_derivatives_only_when_asked(self):
        # the hypergradient reads the gradients' derivatives alone; the rest keeps its bits
        rng = np.random.default_rng(57)
        Z = rng.normal(size=(12, 4)) * 3.0
        labels = rng.integers(4, size=12)
        for hyper in _hyper_cases(rng):
            values, grads, dvalues, dgrads = L.batch_hgrad(hyper, L.normalize(hyper, Z, labels))
            want = batch_hgrad(hyper, Z, labels)
            assert dvalues is None and want[2].shape == (len(hyper.learnable_names), 12)
            for got, w in zip((values, grads, dgrads), want[:2] + want[3:]):
                assert got.tobytes() == w.tobytes(), hyper

    def test_ce_has_none(self):
        Z = np.random.default_rng(54).normal(size=(4, 3))
        _, _, dvalues, dgrads = batch_hgrad(L.HyperParams("ce"), Z, [0, 1, 2, 0])
        assert dvalues.shape == (0, 4) and dgrads.shape == (0, 4, 3)

    def test_bi_tempered_t2_near_one(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            c = int(rng.choice([2, 3, 5, 10]))
            Z = rng.normal(size=(6, c)) * rng.uniform(0.3, 10.0)
            labels = rng.integers(c, size=6)
            hyper = L.HyperParams("bi_tempered", t1=float(rng.uniform(0.1, 0.8)), t2=1.0 + 1e-6)
            values, grads, dvalues, dgrads = batch_hgrad(hyper, Z, labels)
            # a step below t2 - 1 rounds 100 times worse than 1e-5
            fd_values, fd_grads = _fd_in_field(hyper, "t2", Z, labels, 1e-7)
            assert _scaled_err(dvalues[1], fd_values, values) <= 1e-6
            assert _scaled_err(dgrads[1], fd_grads, grads) <= 1e-6
            # closer to t2 = 1 the derivatives stay finite and agree within 1e-6
            near = batch_hgrad(replace(hyper, t2=1.0 + 1.5e-8), Z, labels)
            nearer = batch_hgrad(replace(hyper, t2=1.0 + 0.5e-8), Z, labels)
            for got, want in zip(near[2:], nearer[2:]):
                assert np.all(np.isfinite(got)) and np.all(np.isfinite(want))
                assert rel_err(got, want) <= 1e-6

    @pytest.mark.parametrize("d", [1.01, 1.5, 2.0, 3.0, 6.0, 1e3])
    def test_polysoft_u_one_ulp_above_zero(self, d):
        for lam in (0.5, 1.0, 3.3):
            ce_value = np.nextafter(lam, 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values, u = L.polysoft_of_ce(np.array([ce_value]), lam, d)
                w = L._polysoft_weight(u, d)
                dvalues, dweights = L._polysoft_hgrad_of_ce(np.array([ce_value]), lam, d, values, u, w)
            assert 0.0 < u[0] <= 2.0 * np.finfo(float).eps
            assert np.all(np.isfinite(dvalues)) and np.all(np.isfinite(dweights))


# numpy's special scalar exponents (it takes reciprocal, sqrt and square
# there) and exponents that it raises by its general power
SPECIAL_EXPONENTS = (-1.0, 0.5, 2.0)
ORDINARY_EXPONENTS = (-2.0, -0.5, 0.0, 0.25, 1.0, 1.5, 3.0, 4.0, 1.0 / 3.0)


class TestPow:
    """``_pow`` with per-row exponents gives the bits of a scalar exponent.

    If a numpy upgrade changes the exponents it takes by special ops, a
    per-row exponent no longer matches and these tests fail first.
    """

    @pytest.mark.parametrize("e", SPECIAL_EXPONENTS + ORDINARY_EXPONENTS)
    def test_rows(self, e):
        x = np.random.default_rng(60).uniform(size=20_000)
        assert np.array_equal(L._pow(x, np.full(len(x), e)), x ** float(e))
        assert np.array_equal(L._pow(x, e), x ** float(e))

    @pytest.mark.parametrize("e", SPECIAL_EXPONENTS + ORDINARY_EXPONENTS)
    def test_columns_over_classes(self, e):
        X = np.random.default_rng(61).uniform(size=(8000, 3))
        assert np.array_equal(L._pow(X, np.full((len(X), 1), e)), X ** float(e))

    def test_mixed_exponents(self):
        rng = np.random.default_rng(62)
        exponents = np.array(SPECIAL_EXPONENTS + ORDINARY_EXPONENTS)
        X = rng.uniform(size=(6000, 3))
        e = rng.choice(exponents, size=(len(X), 1))
        got = L._pow(X, e)
        for v in exponents:
            rows = e[:, 0] == v
            assert np.array_equal(got[rows], X[rows] ** float(v)), v


class TestClamp:
    def test_bits_of_clip(self):
        lo, hi = L.PROB_FLOOR, 1.0 - L.PROB_FLOOR
        edges = [np.nan, np.inf, -np.inf, 0.0, -0.0, lo, hi, np.nextafter(lo, 0), np.nextafter(lo, 1),
                 np.nextafter(hi, 0), np.nextafter(hi, 2), 0.5, 1.0, -1.0, 2.0]
        rng = np.random.default_rng(63)
        p = np.concatenate([edges, rng.uniform(-0.5, 1.5, size=500_000),
                            rng.uniform(0.0, 1e-11, size=500_000)])
        got, want = L._clamp(p), np.clip(p, lo, hi)
        assert got.tobytes() == want.tobytes()  # NaN and the sign of zero included
        assert L._clamp(p.reshape(-1, 5)).tobytes() == want.tobytes()


class TestRowFields:
    """One call over stacked runs' rows, each run with its own fields,
    gives every run the bits of its own scalar-field call."""

    RUNS = {
        "ce": [{}, {}],
        # q = 0.5 raises by sqrt; q = 1 by the general power of 1
        "gce": [{"q": q} for q in (0.2, 0.5, 1.0, 0.7)],
        "sl": [{"gamma1": 0.1, "gamma2": 1.0}, {"gamma1": 10.0, "gamma2": 0.1, "rce_a": -2.0},
               {"gamma1": 1.0, "gamma2": 0.0}],
        # d = 1.5, 2 and 3 make an exponent d/(d-1) or 1/(d-1) of 2 or 1/2
        "polysoft": [{"lam": lam, "d": d} for lam in (1.0, 2.2) for d in (1.5, 2.0, 3.0, 1.7)],
        # 1 - t1 + t2 = 2 at the default (0.5, 1.5); t2 = 2
        "bi_tempered": [{"t1": 0.5, "t2": 1.5}, {"t1": 0.8, "t2": 2.0}, {"t1": 0.5, "t2": 2.0},
                        {"t1": 0.0, "t2": 3.0}],
    }

    @pytest.mark.parametrize("variant", list(RUNS))
    def test_one_call_matches_per_run_calls(self, variant):
        rng = np.random.default_rng(63)
        hypers = [L.HyperParams(variant, **fields) for fields in self.RUNS[variant]]
        k = len(hypers)
        for c, n, scale in ((3, 16, 1.0), (2, 5, 10.0), (5, 30, 4.0), (3, 1, 3.0)):
            Z = rng.normal(size=(k, n, c)) * scale
            y = rng.integers(c, size=(k, n))
            fields = row_fields(hypers, n)
            values, G = batch_loss(fields, Z.reshape(k * n, c), y.ravel())
            stacked = batch_hgrad(fields, Z.reshape(k * n, c), y.ravel())
            for r, hyper in enumerate(hypers):
                rows = slice(r * n, (r + 1) * n)
                want_values, want_G = batch_loss(hyper, Z[r], y[r])
                assert values[rows].tobytes() == want_values.tobytes(), (hyper, c)
                assert G[rows].tobytes() == want_G.tobytes(), (hyper, c)
                want = batch_hgrad(hyper, Z[r], y[r])
                got = (stacked[0][rows], stacked[1][rows], stacked[2][:, rows], stacked[3][:, rows])
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (hyper, c)

    @pytest.mark.parametrize("variant", list(RUNS))
    def test_label_column_is_per_label_calls(self, variant):
        # a (c, 1) column of labels gives one row of values per label
        rng = np.random.default_rng(64)
        hyper = L.HyperParams(variant, **self.RUNS[variant][-1])
        P = L.softmax(rng.normal(size=(50, 4)) * 3.0)
        table = L.loss_values(hyper, P, np.arange(4)[:, None])
        assert table.shape == (4, 50)
        for j in range(4):
            assert table[j].tobytes() == L.loss_values(hyper, P, j).tobytes(), j


class TestOneNormalization:
    """Evaluations that share one normalization record give the bits of
    fresh ones, from ``HyperParams`` fields and from a ``_RowFields`` record."""

    # bi_tempered moves t1 alone: its record holds the solve at one t2
    MOVED = {"ce": {}, "gce": {"q": 0.35}, "sl": {"gamma1": 0.4, "gamma2": 2.5},
             "polysoft": {"lam": 1.3, "d": 2.0}, "bi_tempered": {"t1": 0.3}}

    @pytest.mark.parametrize("scale", [1.0, 40.0])
    @pytest.mark.parametrize("variant", list(TestRowFields.RUNS))
    def test_shared_record_bits(self, variant, scale):
        rng = np.random.default_rng(65)
        hypers = [L.HyperParams(variant, **fields) for fields in TestRowFields.RUNS[variant]]
        moved = [replace(h, **self.MOVED[variant]) for h in hypers]
        n, c = 16, 3
        Z = rng.normal(size=(len(hypers) * n, c)) * scale
        y = rng.integers(c, size=len(Z))
        cases = [(h, m, Z[:n], y[:n]) for h, m in zip(hypers, moved)]
        cases.append((row_fields(hypers, n), row_fields(moved, n), Z, y))
        for h, m, Zc, yc in cases:
            batch = L.normalize(h, Zc, yc)
            values, grads, _, _ = L.batch_hgrad(h, batch)
            want_values, want_grads = batch_loss(h, Zc, yc)
            assert values.tobytes() == want_values.tobytes(), h
            assert grads.tobytes() == want_grads.tobytes(), h
            assert L.loss_values(h, L.normalize(h, Zc, yc).P, yc).tobytes() == want_values.tobytes(), h
            # the same record at moved fields, after the evaluations above
            got, want = L.batch_hgrad(m, batch, dvalues=True), batch_hgrad(m, Zc, yc)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), m
            assert L.loss_values(m, batch.P, batch.labels).tobytes() == want[0].tobytes(), m

    @pytest.mark.parametrize("hyper", [
        L.HyperParams("gce", q=0.4), L.HyperParams("sl", gamma1=0.4, gamma2=2.5),
        L.HyperParams("polysoft", lam=1.3, d=2.0), L.HyperParams("bi_tempered", t1=0.0, t2=2.0),
    ], ids=lambda h: h.variant)
    def test_loss_values_are_training_values(self, hyper):
        # at t1 = 0 bi_tempered raises P to 2 - t1 = 2, which numpy takes by
        # square for a scalar field: values must read the fields as training does
        rng = np.random.default_rng(66)
        y = rng.integers(3, size=2000)
        batch = L.normalize(hyper, rng.normal(size=(2000, 3)) * 3.0, y)
        values = L.loss_values(hyper, batch.P, batch.labels)
        assert values.tobytes() == L.batch_loss(hyper, batch)[0].tobytes()
