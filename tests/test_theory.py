"""Tests for the risk-gap sandwich verification machinery."""

import itertools
import math

import numpy as np
import pytest

from arl import theory
from arl.errors import ConfigError, DomainError
from arl.losses import PROB_FLOOR, HyperParams


class TestBoundConstants:
    def test_polysoft_tolerant_point(self):
        h = HyperParams("polysoft", lam=math.log(10.0), d=2.0)
        bc = theory.bound_constants("polysoft", 10, 0.4, h)
        assert bc.noisy_gap_bound == pytest.approx(0.0, abs=1e-12)
        assert bc.clean_gap_bound == pytest.approx(0.0, abs=1e-12)

    def test_polysoft_example(self):
        # independent evaluation: 10*1*0.4/(2*9) * (3 - ln 10) = 0.15498109
        h = HyperParams("polysoft", lam=3.0, d=2.0)
        bc = theory.bound_constants("polysoft", 10, 0.4, h)
        assert bc.noisy_gap_bound == pytest.approx(0.15498109, abs=1e-6)
        assert bc.clean_gap_bound < 0.0

    def test_bi_tempered_example(self):
        # 0.8 - 0.4*(10 - sqrt(10)) / 6.75 = 0.394801639
        h = HyperParams("bi_tempered", t1=0.5, t2=2.0)
        bc = theory.bound_constants("bi_tempered", 10, 0.4, h)
        assert bc.noisy_gap_bound == pytest.approx(0.394801639, abs=1e-8)
        assert bc.clean_gap_bound < 0.0

    def test_signs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(3, 12))
            eta = float(rng.uniform(0.05, 1.0 - 1.0 / c - 0.05))
            h = HyperParams(
                "polysoft",
                lam=math.log(c) * float(rng.uniform(1.0, 3.0)),
                d=float(rng.uniform(1.5, 5.0)),
            )
            bc = theory.bound_constants("polysoft", c, eta, h)
            assert bc.noisy_gap_bound >= 0.0 and bc.clean_gap_bound <= 0.0
            h = HyperParams(
                "bi_tempered",
                t1=float(rng.uniform(0.0, 0.9)),
                t2=float(rng.uniform(1.1, 3.0)),
            )
            bc = theory.bound_constants("bi_tempered", c, eta, h)
            assert bc.noisy_gap_bound >= 0.0 and bc.clean_gap_bound <= 0.0

    def test_monotone_toward_tolerant_point(self):
        lams = np.linspace(math.log(3.0), 3.0, 12)
        bounds = [
            theory.bound_constants(
                "polysoft", 3, 0.4, HyperParams("polysoft", lam=float(l), d=2.0)
            ).noisy_gap_bound
            for l in lams
        ]
        assert np.all(np.diff(bounds) >= -1e-12)
        assert bounds[0] == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis_violations(self):
        h = HyperParams("polysoft", lam=3.0, d=2.0)
        with pytest.raises(DomainError, match="eta"):
            theory.bound_constants("polysoft", 3, 0.7, h)
        with pytest.raises(DomainError, match="lam"):
            theory.bound_constants(
                "polysoft", 10, 0.4, HyperParams("polysoft", lam=1.0, d=2.0)
            )
        with pytest.raises(DomainError, match="variant"):
            theory.bound_constants("gce", 3, 0.4, HyperParams("gce"))


class TestSimplexGrid:
    def test_counts_and_validity(self):
        grid = theory.simplex_grid(3, 0.02)
        assert grid.shape == (math.comb(52, 2), 3)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)
        assert grid.min() >= 0.0

    def test_contains_vertices_and_uniform(self):
        grid = theory.simplex_grid(3, 0.1)
        rows = {tuple(np.round(r, 6)) for r in grid}
        assert (1.0, 0.0, 0.0) in rows
        assert (0.3, 0.3, 0.4) in rows

    def test_budget_guard(self):
        with pytest.raises(ConfigError):
            theory.simplex_grid(10, 0.005)

    @pytest.mark.parametrize("c,delta", [(2, 0.5), (3, 0.1), (3, 0.02), (5, 0.025), (7, 0.25)])
    def test_matches_combinations_loop(self, c, delta):
        # reference: one row per cut set of itertools.combinations, in order
        parts = int(round(1.0 / delta))
        ref = np.empty((math.comb(parts + c - 1, c - 1), c))
        for i, cut in enumerate(itertools.combinations(range(parts + c - 1), c - 1)):
            prev = -1
            for j, edge in enumerate(list(cut) + [parts + c - 1]):
                ref[i, j] = edge - prev - 1
                prev = edge
        ref = ref / parts
        grid = theory.simplex_grid(c, delta)
        assert grid.shape == ref.shape and grid.dtype == ref.dtype
        assert grid.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("c,delta", [(2, 0.1), (3, 0.05), (5, 0.125), (7, 0.25), (60, 0.5)])
    def test_neighbour_rank_matches_row_lookup(self, c, delta):
        # at c = 60, parts = 2 a base-3 positional key needs 3**60 > 2**63
        parts = int(round(1.0 / delta))
        counts = np.rint(theory.simplex_grid(c, delta) * parts).astype(np.int32)
        row_of = {tuple(row): i for i, row in enumerate(counts.tolist())}
        pairs = list(itertools.combinations(range(c), 2))
        found = list(theory._neighbours(counts))
        assert len(found) == len(pairs)
        for (a, b), (src, dst) in zip(pairs, found):
            np.testing.assert_array_equal(src, np.flatnonzero(counts[:, a] > 0))
            moved = counts[src].copy()
            moved[:, a] -= 1
            moved[:, b] += 1
            expected = [row_of[tuple(row)] for row in moved.tolist()]
            np.testing.assert_array_equal(dst, expected)


class TestExactRisk:
    def world(self, eta=0.3):
        return theory.FiniteWorld(labels=[0, 1, 2, 0], c=3, delta=0.02, eta=eta)

    def test_eta_zero_noisy_equals_clean(self):
        world = theory.FiniteWorld(labels=[0, 1, 2, 0], c=3, delta=0.02, eta=0.0)
        rng = np.random.default_rng(1)
        f = rng.dirichlet(np.ones(3), size=4)
        h = HyperParams("polysoft", lam=1.2, d=2.0)
        clean = theory.exact_risk(world, f, "polysoft", h, noisy=False)
        noisy = theory.exact_risk(world, f, "polysoft", h, noisy=True)
        assert clean == pytest.approx(noisy, abs=1e-14)

    def test_vertex_prediction_ce(self):
        world = theory.FiniteWorld(labels=[0, 1], c=3, delta=0.02, eta=0.0)
        f = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        risk = theory.exact_risk(world, f, "ce", HyperParams("ce"), noisy=False)
        assert risk == pytest.approx(0.0, abs=1e-9)

    def test_matches_monte_carlo(self):
        world = self.world(eta=0.3)
        rng = np.random.default_rng(2)
        f = rng.dirichlet(np.ones(3), size=4)
        h = HyperParams("bi_tempered", t1=0.5, t2=2.0)
        exact = theory.exact_risk(world, f, "bi_tempered", h, noisy=True)

        draws = 40_000
        total = np.zeros(draws)
        for k, label in enumerate(world.labels):
            flip = rng.random(draws) < world.eta
            offs = rng.integers(1, 3, size=draws)
            labels = np.where(flip, (label + offs) % 3, label)
            per_label = np.array(
                [
                    float(theory.loss_on_simplex("bi_tempered", h, f[k : k + 1], j)[0])
                    for j in range(3)
                ]
            )
            total += per_label[labels]
        mc = total.mean() / len(world.labels)
        sigma = total.std(ddof=1) / math.sqrt(draws) / len(world.labels)
        assert abs(mc - exact) <= 3.0 * sigma + 1e-12

    def test_bad_assignment(self):
        world = self.world()
        with pytest.raises(DomainError):
            theory.exact_risk(world, np.ones((4, 3)), "ce", HyperParams("ce"), False)


class TestRiskGap:
    def world(self, eta):
        return theory.FiniteWorld(labels=[0, 1, 2, 0], c=3, delta=0.02, eta=eta)

    def test_polysoft_tolerant_equality(self):
        h = HyperParams("polysoft", lam=math.log(3.0), d=2.0)
        report = theory.riskgap_verify(self.world(0.4), "polysoft", h)
        gap = abs(report.noisy_risk_star - report.noisy_risk_hat)
        assert gap <= report.grid_tol
        assert report.noisy_sandwich_ok and report.clean_sandwich_ok

    def test_polysoft_loose_lambda(self):
        h = HyperParams("polysoft", lam=2.0 * math.log(3.0), d=2.0)
        for eta in (0.1, 0.3, 0.6):
            report = theory.riskgap_verify(self.world(eta), "polysoft", h)
            assert report.noisy_sandwich_ok and report.clean_sandwich_ok

    def test_bi_tempered_sweep(self):
        h = HyperParams("bi_tempered", t1=0.5, t2=2.0)
        for eta in (0.1, 0.3, 0.6):
            report = theory.riskgap_verify(self.world(eta), "bi_tempered", h)
            assert report.noisy_sandwich_ok and report.clean_sandwich_ok

    def test_bi_tempered_gap_nontrivial_at_high_noise(self):
        # near the eta ceiling the noisy minimizer moves off the vertex,
        # so the verified gap is strictly positive yet inside the bound
        h = HyperParams("bi_tempered", t1=0.5, t2=2.0)
        report = theory.riskgap_verify(self.world(0.6), "bi_tempered", h)
        gap = report.noisy_risk_star - report.noisy_risk_hat
        assert gap > 0.1
        assert gap <= report.noisy_gap_bound + report.grid_tol

    def test_report_serializes(self):
        h = HyperParams("polysoft", lam=1.5, d=2.0)
        report = theory.riskgap_verify(self.world(0.3), "polysoft", h)
        d = report.as_dict()
        assert set(d) >= {"noisy_gap_bound", "grid_tol", "noisy_sandwich_ok"}

    def test_variant_mismatch_raises(self):
        # a bi_tempered set whose inactive lam and d would pass the polysoft bound
        h = HyperParams("bi_tempered", lam=2.0 * math.log(3.0), d=2.0)
        with pytest.raises(DomainError, match="does not match"):
            theory.riskgap_verify(self.world(0.3), "polysoft", h)
        with pytest.raises(DomainError, match="does not match"):
            theory.bound_constants("polysoft", 3, 0.3, h)
        with pytest.raises(DomainError, match="does not match"):
            theory.loss_on_simplex("gce", HyperParams("polysoft"), np.full((1, 3), 1 / 3), 0)
        with pytest.raises(DomainError, match="does not match"):
            theory.label_sum_range("sl", HyperParams("gce"), 3, 0.1)


class TestBoundedLossSums:
    def test_all_families_bounded_on_grid(self):
        cases = [
            ("gce", HyperParams("gce", q=0.5)),
            ("sl", HyperParams("sl", gamma1=1.0, gamma2=1.0)),
            ("bi_tempered", HyperParams("bi_tempered", t1=0.5, t2=2.0)),
            ("polysoft", HyperParams("polysoft", lam=math.log(3.0), d=2.0)),
        ]
        for variant, h in cases:
            lo, hi = theory.label_sum_range(variant, h, 3, 0.02)
            assert np.isfinite(lo) and np.isfinite(hi) and hi >= lo

    def test_polysoft_sum_range_at_tolerant_point(self):
        # the label sum is NOT constant for the soft-weighting loss: it
        # spans [(c-1)*plateau, c*plateau] between vertices and the
        # uniform point; tolerance instead comes from the clean minimizer
        # also minimizing the label sum (verified by the equality case)
        c, d = 3, 2.0
        lam = math.log(c)
        h = HyperParams("polysoft", lam=lam, d=d)
        lo, hi = theory.label_sum_range("polysoft", h, c, 0.02)
        plateau = (d - 1.0) * lam / d
        # extremes sit at the vertices and the uniform point; the latter is
        # off-grid for delta = 0.02, hence the grid-resolution tolerance
        assert lo == pytest.approx((c - 1) * plateau, abs=1e-6)
        assert hi == pytest.approx(c * plateau, abs=0.01)
        assert hi <= c * plateau + 1e-9


def _moved_copy_lipschitz(variant, hyper, c, delta):
    """The estimator before the loss table: re-evaluate on moved grid copies."""
    grid = theory.simplex_grid(c, delta)
    worst = 0.0
    for label in range(c):
        base = theory.loss_on_simplex(variant, hyper, grid, label)
        for a in range(c):
            movable = grid[:, a] >= delta - 1e-12
            if not movable.any():
                continue
            for b in range(c):
                if b == a:
                    continue
                moved = grid[movable].copy()
                moved[:, a] -= delta
                moved[:, b] += delta
                vals = theory.loss_on_simplex(variant, hyper, moved, label)
                slope = np.abs(vals - base[movable]) / (2.0 * delta)
                worst = max(worst, float(slope.max()))
    return worst


def _per_point_loop_verify(world, variant, hyper):
    """Minimizers, risks and tolerance as found by one grid scan per point."""

    def terms(grid, label, noisy):
        per_label = np.stack(
            [theory.loss_on_simplex(variant, hyper, grid, j) for j in range(world.c)], axis=1
        )
        if not noisy:
            return per_label[:, label]
        others = per_label.sum(axis=1) - per_label[:, label]
        return (1.0 - world.eta) * per_label[:, label] + world.eta / (world.c - 1.0) * others

    def risk(assignment, noisy):
        total = 0.0
        for k, label in enumerate(world.labels):
            total += float(terms(assignment[k : k + 1], int(label), noisy)[0])
        return total / len(world.labels)

    grid = theory.simplex_grid(world.c, world.delta)
    f_star = np.stack([grid[int(np.argmin(terms(grid, int(l), False)))] for l in world.labels])
    f_hat = np.stack([grid[int(np.argmin(terms(grid, int(l), True)))] for l in world.labels])
    risks = [risk(f_star, False), risk(f_hat, False), risk(f_star, True), risk(f_hat, True)]
    tol = _moved_copy_lipschitz(variant, hyper, world.c, world.delta) * world.delta
    return f_star, f_hat, risks, tol


class TestLossTable:
    @pytest.mark.parametrize("c,delta", [(2, 0.02), (3, 0.05), (5, 0.1)])
    @pytest.mark.parametrize(
        "variant,hyper",
        [
            ("ce", HyperParams("ce")),
            ("gce", HyperParams("gce", q=0.5)),
            ("sl", HyperParams("sl", gamma1=1.0, gamma2=1.0)),
            ("bi_tempered", HyperParams("bi_tempered", t1=0.5, t2=2.0)),
            ("polysoft", HyperParams("polysoft", lam=2.0, d=2.0)),
        ],
    )
    def test_lipschitz_matches_moved_copies(self, c, delta, variant, hyper):
        grid = theory.simplex_grid(c, delta)
        table = theory._loss_table(variant, hyper, grid)
        got = theory.grid_lipschitz(grid, table, delta)
        ref = _moved_copy_lipschitz(variant, hyper, c, delta)
        assert got > 0.0
        assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.6])
    @pytest.mark.parametrize(
        "variant,hyper",
        [
            ("polysoft", HyperParams("polysoft", lam=2.0 * math.log(3.0), d=2.0)),
            ("polysoft", HyperParams("polysoft", lam=math.log(3.0), d=2.0)),
            ("bi_tempered", HyperParams("bi_tempered", t1=0.5, t2=2.0)),
        ],
    )
    def test_verify_matches_per_point_loop(self, eta, variant, hyper):
        # the acceptance worlds: minimizers and risks to the bit
        world = theory.FiniteWorld(labels=[0, 1, 2, 0], c=3, delta=0.02, eta=eta)
        report = theory.riskgap_verify(world, variant, hyper)
        f_star, f_hat, risks, tol = _per_point_loop_verify(world, variant, hyper)
        assert report.f_star.tobytes() == f_star.tobytes()
        assert report.f_hat.tobytes() == f_hat.tobytes()
        got = [report.clean_risk_star, report.clean_risk_hat,
               report.noisy_risk_star, report.noisy_risk_hat]
        assert got == risks
        assert abs(report.grid_tol - tol) <= 1e-12 * tol


def _reference_loss_on_simplex(variant, hyper, probs, label):
    """loss_on_simplex with its own formulas, as before the family kernels."""
    U = np.clip(np.atleast_2d(probs), PROB_FLOOR, 1.0 - PROB_FLOOR)
    uj = U[:, label]
    if variant == "ce":
        return -np.log(uj)
    if variant == "gce":
        return (1.0 - uj**hyper.q) / hyper.q
    if variant == "sl":
        return hyper.gamma1 * -np.log(uj) + hyper.gamma2 * (-hyper.rce_a * (U.sum(axis=1) - uj))
    if variant == "bi_tempered":
        s1 = 1.0 - hyper.t1
        log_term = np.expm1(s1 * np.log(uj)) / s1 if abs(s1) > 1e-8 else np.log(uj)
        return -log_term - (1.0 - (U ** (2.0 - hyper.t1)).sum(axis=1)) / (2.0 - hyper.t1)
    ce_vals = -np.log(uj)
    inside = ce_vals < hyper.lam
    u = np.where(inside, 1.0 - ce_vals / hyper.lam, 0.0)
    plateau = (hyper.d - 1.0) * hyper.lam / hyper.d
    return np.where(inside, plateau * (1.0 - u ** (hyper.d / (hyper.d - 1.0))), plateau)


# the bounds_scan worlds of benchmark seeds 0-4: (variant, labels, eta, hyper), c=5, delta=0.025
BOUNDS_SCAN_WORLDS = [
    ("polysoft", [3, 3, 0, 2, 4], 0.3916, {"lam": 4.5651, "d": 3.5746}),
    ("bi_tempered", [3, 3, 0, 2, 4], 0.3916, {"t1": 0.7807, "t2": 1.8445}),
    ("polysoft", [1, 4, 0, 2, 0], 0.3973, {"lam": 3.0563, "d": 3.129}),
    ("bi_tempered", [1, 4, 0, 2, 0], 0.3973, {"t1": 0.6732, "t2": 1.3689}),
    ("polysoft", [0, 0, 0, 2, 1], 0.5416, {"lam": 3.7652, "d": 2.2703}),
    ("bi_tempered", [0, 0, 0, 2, 1], 0.5416, {"t1": 0.5636, "t2": 2.2922}),
    ("polysoft", [1, 4, 4, 1, 2], 0.6496, {"lam": 3.1354, "d": 2.9521}),
    ("bi_tempered", [1, 4, 4, 1, 2], 0.6496, {"t1": 0.5634, "t2": 2.8359}),
    ("polysoft", [1, 2, 0, 3, 3], 0.193, {"lam": 1.8235, "d": 2.504}),
    ("bi_tempered", [1, 2, 0, 3, 3], 0.193, {"t1": 0.7508, "t2": 2.6408}),
]
ACCEPTANCE_WORLDS = [
    (variant, [0, 1, 2, 0], eta, hyper)
    for eta in (0.1, 0.3, 0.6)
    for variant, hyper in (
        ("polysoft", {"lam": 2.0 * math.log(3.0), "d": 2.0}),
        ("polysoft", {"lam": math.log(3.0), "d": 2.0}),
        ("bi_tempered", {"t1": 0.5, "t2": 2.0}),
    )
]


class TestKernelTable:
    """The theory table is the training kernels' values on the grid rows."""

    @pytest.mark.parametrize("c,delta", [(2, 0.02), (3, 0.02), (5, 0.025)])
    @pytest.mark.parametrize(
        "variant,hyper",
        [
            ("ce", HyperParams("ce")),
            ("gce", HyperParams("gce", q=0.5)),
            ("gce", HyperParams("gce", q=0.3)),
            ("sl", HyperParams("sl", gamma1=1.0, gamma2=1.0)),
            ("sl", HyperParams("sl", gamma1=0.4, gamma2=2.5, rce_a=-6.0)),
            ("bi_tempered", HyperParams("bi_tempered", t1=0.5, t2=2.0)),
            ("bi_tempered", HyperParams("bi_tempered", t1=0.2, t2=1.3)),
            ("polysoft", HyperParams("polysoft", lam=2.0, d=2.0)),
            ("polysoft", HyperParams("polysoft", lam=math.log(3.0), d=2.0)),
        ],
    )
    def test_table_matches_reference(self, c, delta, variant, hyper):
        grid = theory.simplex_grid(c, delta)
        floored = np.any((grid < PROB_FLOOR) | (grid > 1.0 - PROB_FLOOR), axis=1)
        for label in range(c):
            got = theory.loss_on_simplex(variant, hyper, grid, label)
            ref = _reference_loss_on_simplex(variant, hyper, grid, label)
            moved = got != ref
            if variant == "sl":
                # training's rce takes the off-label mass unclamped
                assert not np.any(moved & ~floored)
                assert np.abs(got - ref).max() <= hyper.gamma2 * -hyper.rce_a * c * PROB_FLOOR
            elif variant == "bi_tempered":
                # training clamps at 0 what rounds just below it, at the label's vertex
                assert moved.sum() == 1 and grid[moved, label] == 1.0
                assert -1e-16 < ref[moved] < 0.0 and got[moved] == 0.0
            else:
                assert not moved.any()

    @pytest.mark.parametrize("variant,labels,eta,hyper", ACCEPTANCE_WORLDS + BOUNDS_SCAN_WORLDS)
    def test_minimizers_match_reference(self, variant, labels, eta, hyper):
        c, delta = (3, 0.02) if len(labels) == 4 else (5, 0.025)
        world = theory.FiniteWorld(labels=labels, c=c, delta=delta, eta=eta)
        h = HyperParams(variant, **hyper)
        report = theory.riskgap_verify(world, variant, h)
        grid = theory.simplex_grid(c, delta)
        table = np.stack([_reference_loss_on_simplex(variant, h, grid, j) for j in range(c)], axis=1)
        for k, label in enumerate(world.labels):
            clean = theory._per_point_terms(table, label, eta, False)
            noisy = theory._per_point_terms(table, label, eta, True)
            assert report.f_star[k].tobytes() == grid[int(np.argmin(clean))].tobytes()
            assert report.f_hat[k].tobytes() == grid[int(np.argmin(noisy))].tobytes()
        assert report.noisy_sandwich_ok and report.clean_sandwich_ok
