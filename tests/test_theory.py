"""Tests for the risk-gap sandwich verification machinery."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import theory_reference

from arl import losses, theory
from arl.errors import ConfigError, DomainError
from arl.losses import PROB_FLOOR, HyperParams


class TestBoundConstants:
    def test_polysoft_tolerant_point(self):
        h = HyperParams("polysoft", lam=math.log(10.0), d=2.0)
        bc = theory.bound_constants(10, 0.4, h)
        assert bc.noisy_gap_bound == pytest.approx(0.0, abs=1e-12)
        assert bc.clean_gap_bound == pytest.approx(0.0, abs=1e-12)

    def test_polysoft_example(self):
        # independent evaluation: 10*1*0.4/(2*9) * (3 - ln 10) = 0.15498109
        h = HyperParams("polysoft", lam=3.0, d=2.0)
        bc = theory.bound_constants(10, 0.4, h)
        assert bc.noisy_gap_bound == pytest.approx(0.15498109, abs=1e-6)
        assert bc.clean_gap_bound < 0.0

    def test_bi_tempered_example(self):
        # 0.8 - 0.4*(10 - sqrt(10)) / 6.75 = 0.394801639
        h = HyperParams("bi_tempered", t1=0.5, t2=2.0)
        bc = theory.bound_constants(10, 0.4, h)
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
            bc = theory.bound_constants(c, eta, h)
            assert bc.noisy_gap_bound >= 0.0 and bc.clean_gap_bound <= 0.0
            h = HyperParams(
                "bi_tempered",
                t1=float(rng.uniform(0.0, 0.9)),
                t2=float(rng.uniform(1.1, 3.0)),
            )
            bc = theory.bound_constants(c, eta, h)
            assert bc.noisy_gap_bound >= 0.0 and bc.clean_gap_bound <= 0.0

    def test_monotone_toward_tolerant_point(self):
        lams = np.linspace(math.log(3.0), 3.0, 12)
        bounds = [
            theory.bound_constants(
                3, 0.4, HyperParams("polysoft", lam=float(l), d=2.0)
            ).noisy_gap_bound
            for l in lams
        ]
        assert np.all(np.diff(bounds) >= -1e-12)
        assert bounds[0] == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis_violations(self):
        h = HyperParams("polysoft", lam=3.0, d=2.0)
        with pytest.raises(DomainError, match="eta"):
            theory.bound_constants(3, 0.7, h)
        with pytest.raises(DomainError, match="lam"):
            theory.bound_constants(
                10, 0.4, HyperParams("polysoft", lam=1.0, d=2.0)
            )
        with pytest.raises(DomainError, match="variant"):
            theory.bound_constants(3, 0.4, HyperParams("gce"))

    @pytest.mark.parametrize("c", [3, 4])
    def test_eta_at_one_minus_one_over_c_rejected_up_front(self, c):
        # the clean-gap constant divides by c - 1 - eta c, so eta = 1 - 1/c is
        # out of range for the verification and for the constants alike, by one rule
        h = HyperParams("polysoft", lam=3.0, d=2.0)
        scan = theory.grid_scan(c, 0.5, h)
        says = f"out of range 0 <= eta < 1 - 1/c = {1.0 - 1.0 / c:.6g} for {c} classes"
        for check in (theory._check_eta, lambda eta, c: theory.riskgap_verify(scan, [0, 1], eta),
                      lambda eta, c: theory.bound_constants(c, eta, h)):
            with pytest.raises(DomainError, match=says):
                check(1.0 - 1.0 / c, c)
        below = 1.0 - 1.0 / c - 1e-3
        theory.riskgap_verify(scan, [0, 1], below)
        assert theory.bound_constants(c, below, h).clean_gap_bound < 0.0


class TestSimplexGrid:
    def test_counts_and_validity(self):
        grid = theory.simplex_grid(3, 0.02)
        assert grid.shape == (math.comb(52, 2), 3) and grid.dtype == np.int32
        assert np.all(grid.sum(axis=1) == 50)
        assert grid.min() >= 0

    def test_contains_vertices_and_uniform(self):
        rows = {tuple(r) for r in theory.simplex_grid(3, 0.1).tolist()}
        assert (10, 0, 0) in rows
        assert (3, 3, 4) in rows

    def test_budget_guard(self):
        says = f"10 classes at delta=0.005 would hold {math.comb(209, 9)} points > budget {theory.GRID_BUDGET}"
        with pytest.raises(ConfigError, match=says):
            theory.simplex_grid(10, 0.005)

    @pytest.mark.parametrize("c, delta, says", [
        (1, 0.5, "need at least two classes, got 1"),
        (3, 0.0, r"delta must lie in \(0, 0.5\], got 0.0"),
        (3, 0.75, r"delta must lie in \(0, 0.5\], got 0.75"),
        (3, 0.03, "1/delta must be an integer, got delta=0.03"),
        (40, 0.02, "40 classes at delta=0.02 would hold"),
    ], ids=["one-class", "delta-0", "delta-0.75", "delta-0.03", "budget"])
    def test_grid_rule(self, c, delta, says):
        # one rule for simplex_grid, grid_scan and the parsed theory config
        with pytest.raises(ConfigError, match=says):
            theory.simplex_grid(c, delta)

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
        grid = theory.simplex_grid(c, delta) / parts
        assert grid.shape == ref.shape and grid.dtype == ref.dtype
        assert grid.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("c,delta", [
        (2, 0.5), (3, 0.1), (3, 0.02), (5, 0.025), (7, 0.25), (10, 0.1), (60, 0.5), (3, 0.001),
    ])
    def test_matches_prefix_block_reference(self, c, delta):
        # the counts over 1/delta are the probability vectors of the column_stack build
        parts = int(round(1.0 / delta))
        grid, ref = theory.simplex_grid(c, delta) / parts, theory_reference.simplex_grid(c, delta)
        np.testing.assert_array_equal(grid, ref)
        assert grid.dtype == ref.dtype and grid.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "c,delta", [(2, 0.1), (3, 0.05), (5, 0.05), (5, 0.125), (7, 0.25), (60, 0.5)]
    )
    def test_neighbour_rank_matches_row_lookup(self, c, delta):
        # a neighbour's rank among the rows with mass at b is its source's among
        # the rows with mass at a: one delta moved from a to b takes the k-th
        # such row to the k-th; blocks of 400 rows leave partial last blocks
        counts = theory.simplex_grid(c, delta)
        row_of = {tuple(row): i for i, row in enumerate(counts.tolist())}
        for a, b in itertools.permutations(range(c), 2):
            src, dst = np.flatnonzero(counts[:, a]), np.flatnonzero(counts[:, b])
            assert len(src) == len(dst)
            for block in (theory._TABLE_BLOCK, 400):
                for start in range(0, len(src), block):
                    moved = counts[src[start:start + block]]
                    moved[:, a] -= 1
                    moved[:, b] += 1
                    expected = [row_of[tuple(row)] for row in moved.tolist()]
                    np.testing.assert_array_equal(dst[start:start + block], expected)


LABELS = [0, 1, 2, 0]


def _assert_labels_rule(labels, says):
    """One labels rule for the verification and the parsed theory config."""
    scan = theory.grid_scan(3, 0.5, HyperParams("polysoft", lam=3.0, d=2.0))
    for check in (lambda: theory._check_labels(labels, 3), lambda: theory.riskgap_verify(scan, labels, 0.3)):
        with pytest.raises(ConfigError, match=says):
            check()


class TestExactRisk:
    def test_empty_world_is_config_error(self):
        _assert_labels_rule([], "a world needs at least one point")

    @pytest.mark.parametrize("labels, says", [
        ([0, 5, 1], "label 5 out of range for 3 classes"),
        ([-1], "label -1 out of range for 3 classes"),
    ], ids=["above", "below"])
    def test_label_out_of_range_is_config_error(self, labels, says):
        _assert_labels_rule(labels, says)

    def test_eta_zero_noisy_equals_clean(self):
        rng = np.random.default_rng(1)
        f = rng.dirichlet(np.ones(3), size=4)
        h = HyperParams("polysoft", lam=1.2, d=2.0)
        clean = theory_reference.exact_risk(LABELS, 0.0, f, h, noisy=False)
        noisy = theory_reference.exact_risk(LABELS, 0.0, f, h, noisy=True)
        assert clean == pytest.approx(noisy, abs=1e-14)

    def test_vertex_prediction_ce(self):
        f = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        risk = theory_reference.exact_risk([0, 1], 0.0, f, HyperParams("ce"), noisy=False)
        assert risk == pytest.approx(0.0, abs=1e-9)

    def test_matches_monte_carlo(self):
        eta = 0.3
        rng = np.random.default_rng(2)
        f = rng.dirichlet(np.ones(3), size=4)
        h = HyperParams("bi_tempered", t1=0.5, t2=2.0)
        exact = theory_reference.exact_risk(LABELS, eta, f, h, noisy=True)

        draws = 40_000
        total = np.zeros(draws)
        for k, label in enumerate(LABELS):
            flip = rng.random(draws) < eta
            offs = rng.integers(1, 3, size=draws)
            labels = np.where(flip, (label + offs) % 3, label)
            per_label = np.array(
                [
                    float(losses.loss_values(h, f[k : k + 1], j)[0])
                    for j in range(3)
                ]
            )
            total += per_label[labels]
        mc = total.mean() / len(LABELS)
        sigma = total.std(ddof=1) / math.sqrt(draws) / len(LABELS)
        assert abs(mc - exact) <= 3.0 * sigma + 1e-12

    def test_bad_assignment(self):
        with pytest.raises(DomainError):
            theory_reference.exact_risk(LABELS, 0.3, np.ones((4, 3)), HyperParams("ce"), False)


def _verify(hyper, eta, labels=LABELS, c=3, delta=0.02):
    """``riskgap_verify`` of ``labels`` at eta on the grid_scan of c, delta and hyper."""
    return theory.riskgap_verify(theory.grid_scan(c, delta, hyper), labels, eta)


class TestRiskGap:
    def test_polysoft_tolerant_equality(self):
        h = HyperParams("polysoft", lam=math.log(3.0), d=2.0)
        report = _verify(h, 0.4)
        gap = abs(report.noisy_risk_star - report.noisy_risk_hat)
        assert gap <= report.grid_tol
        assert report.noisy_sandwich_ok and report.clean_sandwich_ok

    def test_polysoft_loose_lambda(self):
        scan = theory.grid_scan(3, 0.02, HyperParams("polysoft", lam=2.0 * math.log(3.0), d=2.0))
        for eta in (0.1, 0.3, 0.6):
            report = theory.riskgap_verify(scan, LABELS, eta)
            assert report.noisy_sandwich_ok and report.clean_sandwich_ok

    def test_bi_tempered_sweep(self):
        scan = theory.grid_scan(3, 0.02, HyperParams("bi_tempered", t1=0.5, t2=2.0))
        for eta in (0.1, 0.3, 0.6):
            report = theory.riskgap_verify(scan, LABELS, eta)
            assert report.noisy_sandwich_ok and report.clean_sandwich_ok

    def test_bi_tempered_gap_nontrivial_at_high_noise(self):
        # near the eta ceiling the noisy minimizer moves off the vertex,
        # so the verified gap is strictly positive yet inside the bound
        h = HyperParams("bi_tempered", t1=0.5, t2=2.0)
        report = _verify(h, 0.6)
        gap = report.noisy_risk_star - report.noisy_risk_hat
        assert gap > 0.1
        assert gap <= report.noisy_gap_bound + report.grid_tol

    def test_report_serializes(self):
        h = HyperParams("polysoft", lam=1.5, d=2.0)
        report = _verify(h, 0.3)
        d = report.as_dict()
        assert set(d) >= {"noisy_gap_bound", "grid_tol", "noisy_sandwich_ok"}


class TestBoundedLossSums:
    def test_all_families_bounded_on_grid(self):
        cases = [
            HyperParams("gce", q=0.5),
            HyperParams("sl", gamma1=1.0, gamma2=1.0),
            HyperParams("bi_tempered", t1=0.5, t2=2.0),
            HyperParams("polysoft", lam=math.log(3.0), d=2.0),
        ]
        for h in cases:
            sums = theory._loss_table(h, theory.simplex_grid(3, 0.02)).sum(axis=1)
            assert np.all(np.isfinite(sums))

    def test_polysoft_sum_range_at_tolerant_point(self):
        # the label sum is NOT constant for the soft-weighting loss: it
        # spans [(c-1)*plateau, c*plateau] between vertices and the
        # uniform point; tolerance instead comes from the clean minimizer
        # also minimizing the label sum (verified by the equality case)
        c, d = 3, 2.0
        lam = math.log(c)
        h = HyperParams("polysoft", lam=lam, d=d)
        sums = theory._loss_table(h, theory.simplex_grid(c, 0.02)).sum(axis=1)
        lo, hi = sums.min(), sums.max()
        plateau = (d - 1.0) * lam / d
        # extremes sit at the vertices and the uniform point; the latter is
        # off-grid for delta = 0.02, hence the grid-resolution tolerance
        assert lo == pytest.approx((c - 1) * plateau, abs=1e-6)
        assert hi == pytest.approx(c * plateau, abs=0.01)
        assert hi <= c * plateau + 1e-9


def _moved_copy_lipschitz(variant, hyper, c, delta):
    """The estimator before the loss table: re-evaluate on moved grid copies."""
    grid = theory_reference.simplex_grid(c, delta)
    worst = 0.0
    for label in range(c):
        base = losses.loss_values(hyper, grid, label)
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
                vals = losses.loss_values(hyper, moved, label)
                slope = np.abs(vals - base[movable]) / (2.0 * delta)
                worst = max(worst, float(slope.max()))
    return worst


def _per_point_loop_verify(labels, c, delta, eta, variant, hyper):
    """Minimizers, risks and tolerance as found by one grid scan per point."""

    def terms(grid, label, noisy):
        per_label = np.stack(
            [losses.loss_values(hyper, grid, j) for j in range(c)], axis=1
        )
        if not noisy:
            return per_label[:, label]
        others = per_label.sum(axis=1) - per_label[:, label]
        return (1.0 - eta) * per_label[:, label] + eta / (c - 1.0) * others

    def risk(assignment, noisy):
        total = 0.0
        for k, label in enumerate(labels):
            total += float(terms(assignment[k : k + 1], int(label), noisy)[0])
        return total / len(labels)

    grid = theory_reference.simplex_grid(c, delta)
    f_star = np.stack([grid[int(np.argmin(terms(grid, int(l), False)))] for l in labels])
    f_hat = np.stack([grid[int(np.argmin(terms(grid, int(l), True)))] for l in labels])
    risks = [risk(f_star, False), risk(f_hat, False), risk(f_star, True), risk(f_hat, True)]
    tol = _moved_copy_lipschitz(variant, hyper, c, delta) * delta
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
        table = theory._loss_table(hyper, grid)
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
        report = _verify(hyper, eta)
        f_star, f_hat, risks, tol = _per_point_loop_verify(LABELS, 3, 0.02, eta, variant, hyper)
        assert report.f_star.tobytes() == f_star.tobytes()
        assert report.f_hat.tobytes() == f_hat.tobytes()
        got = [report.clean_risk_star, report.clean_risk_hat,
               report.noisy_risk_star, report.noisy_risk_hat]
        assert got == risks
        assert abs(report.grid_tol - tol) <= 1e-12 * tol


def _reference_loss_values(variant, hyper, probs, label):
    """The theory table's values with their own formulas, as before the family kernels."""
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
        grid = theory_reference.simplex_grid(c, delta)
        floored = np.any((grid < PROB_FLOOR) | (grid > 1.0 - PROB_FLOOR), axis=1)
        for label in range(c):
            got = losses.loss_values(hyper, grid, label)
            ref = _reference_loss_values(variant, hyper, grid, label)
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
        h = HyperParams(variant, **hyper)
        report = _verify(h, eta, labels, c, delta)
        grid = theory_reference.simplex_grid(c, delta)
        table = np.stack([_reference_loss_values(variant, h, grid, j) for j in range(c)], axis=1)
        sums = table.sum(axis=1)
        for k, label in enumerate(labels):
            clean = theory._per_point_terms(table, sums, label, eta, False)
            noisy = theory._per_point_terms(table, sums, label, eta, True)
            assert report.f_star[k].tobytes() == grid[int(np.argmin(clean))].tobytes()
            assert report.f_hat[k].tobytes() == grid[int(np.argmin(noisy))].tobytes()
        assert report.noisy_sandwich_ok and report.clean_sandwich_ok


C4_WORLDS = [
    (variant, [0, 1, 2, 3, 1], eta, hyper)
    for eta in (0.1, 0.4, 0.7)
    for variant, hyper in (
        ("polysoft", {"lam": 2.0, "d": 2.5}),
        ("bi_tempered", {"t1": 0.4, "t2": 1.6}),
    )
]


class TestTableRisks:
    """``riskgap_verify`` reads its risks from the grid's table: the bits of evaluating the loss again."""

    @pytest.mark.parametrize(
        "c,delta,variant,labels,eta,hyper",
        [(3, 0.02, *w) for w in ACCEPTANCE_WORLDS] + [(4, 0.05, *w) for w in C4_WORLDS]
        + [(5, 0.025, *w) for w in BOUNDS_SCAN_WORLDS],
    )
    def test_risks_match_exact_risk(self, c, delta, variant, labels, eta, hyper):
        h = HyperParams(variant, **hyper)
        report = _verify(h, eta, labels, c, delta)
        got = [report.clean_risk_star, report.clean_risk_hat,
               report.noisy_risk_star, report.noisy_risk_hat]
        want = [theory_reference.exact_risk(labels, eta, f, h, noisy)
                for noisy in (False, True) for f in (report.f_star, report.f_hat)]
        assert got == want


TOLERANCE_HYPERS = [
    HyperParams("polysoft", lam=2.0, d=2.0),
    HyperParams("bi_tempered", t1=0.5, t2=2.0),
    HyperParams("gce", q=0.5),
]


class TestBlockedTolerance:
    """The blocked slope scan gives the bits of the whole-grid gathers."""

    # (5, 0.05) has 10,626 rows, a partial second block; (5, 0.025) has 17
    # blocks; in blocks of 400 rows at c = 60 the first 1770 have no mass at 0
    @pytest.mark.parametrize("c,delta,block", [
        (2, 0.5, theory._TABLE_BLOCK), (3, 0.02, theory._TABLE_BLOCK),
        (5, 0.05, theory._TABLE_BLOCK), (5, 0.025, theory._TABLE_BLOCK),
        (60, 0.5, theory._TABLE_BLOCK), (60, 0.5, 400),
    ])
    @pytest.mark.parametrize("hyper", TOLERANCE_HYPERS, ids=lambda h: h.variant)
    def test_matches_gather_reference(self, monkeypatch, c, delta, block, hyper):
        grid = theory.simplex_grid(c, delta)
        table = theory._loss_table(hyper, grid)
        monkeypatch.setattr(theory, "_TABLE_BLOCK", block)
        got = theory.grid_lipschitz(grid, table, delta)
        assert got > 0.0
        assert got == theory_reference.grid_lipschitz(grid, table, delta)

    @pytest.mark.parametrize("variant,labels,eta,hyper", BOUNDS_SCAN_WORLDS)
    def test_bounds_scan_grid_tol(self, variant, labels, eta, hyper):
        h = HyperParams(variant, **hyper)
        report = _verify(h, eta, labels, 5, 0.025)
        grid = theory.simplex_grid(5, 0.025)
        table = theory._loss_table(h, grid)
        assert report.grid_tol == theory_reference.grid_lipschitz(grid, table, 0.025) * 0.025

    def test_temporaries_stay_below_one_table(self):
        # the scan holds one block of rows at a time, never a grid-sized temporary
        grid = theory.simplex_grid(5, 0.025)
        table = theory._loss_table(HyperParams("polysoft", lam=2.0, d=2.0), grid)
        tracemalloc.start()
        try:
            theory.grid_lipschitz(grid, table, 0.025)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes
