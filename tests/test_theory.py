"""Brute-force verification machinery for the finite-problem claims."""

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import log as mplog
from mpmath import sqrt as mpsqrt

import samediff.theory as theory
from samediff import (
    FiniteProblem,
    generalization_bound,
    generate_problem,
    image_support_size,
    required_head_norm,
    run_verification_suite,
    signed_mean,
    verify_collapse_optimality,
    verify_head_norm_argmin,
)
from samediff.theory import (
    ROUNDING_TOL,
    HeadNormReport,
    OptimalityReport,
    _cross_check_slack,
    _directions,
)
from conftest import (
    half_best_gamma,
    min_head_risk_grid,
    required_head_norm_bisect,
    with_constant_map,
)


ANTIPODAL = np.array([[1.0, 0.0], [-1.0, 0.0]])


def antipodal_problem(alpha=0.5, radius=1.0, extra=()):
    """Two inputs, one per class, plus an exactly antipodal two-point map."""
    pmf = np.array([[alpha, 0.0], [0.0, 1.0 - alpha]])
    h = np.array([[radius, 0.0], [-radius, 0.0]])
    return FiniteProblem(pmf=pmf, hypotheses=(h, *extra), radius=radius)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestFiniteProblem:
    @pytest.mark.parametrize("pmf, hyps, radius, message", [
        (np.full((2, 3), 1 / 6), (ANTIPODAL,), 1.0, r"pmf must be \(m, 2\)"),
        (np.full(4, 0.25), (ANTIPODAL,), 1.0, r"pmf must be \(m, 2\)"),
        (np.array([[0.6, -0.1], [0.0, 0.5]]), (ANTIPODAL,), 1.0,
         "pmf entries must be nonnegative"),
        (np.eye(2) * 0.5, (ANTIPODAL,), 0.0, "radius must be positive"),
        (np.eye(2) * 0.5, (ANTIPODAL,), -1.0, "radius must be positive"),
        (np.eye(2) * 0.5, (), 1.0, "at least one hypothesis required"),
        (np.eye(2) * 0.5, (ANTIPODAL, np.zeros((3, 2))), 1.0,
         r"hypothesis 1 must have shape \(2, 2\)"),
    ], ids=["pmf-3-cols", "pmf-1d", "pmf-negative", "radius-0", "radius-negative",
            "no-hypotheses", "hypothesis-shape"])
    def test_refusals(self, pmf, hyps, radius, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteProblem(pmf=pmf, hypotheses=hyps, radius=radius)

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteProblem(pmf=np.array([[0.6, 0.0], [0.0, 0.5]]),
                          hypotheses=(np.array([[1.0, 0.0], [-1.0, 0.0]]),))

    def test_both_classes_need_mass(self):
        with pytest.raises(ValueError, match="strictly positive"):
            FiniteProblem(pmf=np.array([[1.0, 0.0], [0.0, 0.0]]),
                          hypotheses=(np.array([[1.0, 0.0], [-1.0, 0.0]]),))

    def test_rows_must_sit_on_sphere(self):
        h = np.array([[1.0, 0.0], [-0.5, 0.0]])
        with pytest.raises(ValueError, match="off the radius"):
            FiniteProblem(pmf=np.eye(2) * 0.5, hypotheses=(h,))

    @pytest.mark.parametrize("row", [[-0.5, 0.0], [np.nan, 0.0]], ids=["short", "nan"])
    def test_first_hypothesis_off_the_sphere_is_named(self, row):
        good = np.array([[1.0, 0.0], [-1.0, 0.0]])
        bad = np.array([[0.0, 1.0], row])
        with pytest.raises(ValueError, match="^hypothesis 1 has rows off the radius-1.0 sphere$"):
            FiniteProblem(pmf=np.eye(2) * 0.5, hypotheses=(good, bad, bad))

    def test_hypotheses_are_one_read_only_stack(self):
        h = np.array([[1.0, 0.0], [-1.0, 0.0]])
        prob = antipodal_problem(extra=(h,))
        assert prob.hypotheses.shape == (2, 2, 2)
        assert len(prob.hypotheses) == 2
        assert [row.tolist() for row in prob.hypotheses[1]] == h.tolist()
        with pytest.raises(ValueError, match="read-only"):
            prob.hypotheses[1, 0, 0] = 0.0
        h[0, 0] = 0.0   # the stack is a copy of its inputs
        assert prob.hypotheses[1, 0, 0] == 1.0

    def test_alpha_property(self):
        assert antipodal_problem(alpha=0.3).alpha == pytest.approx(0.3)


class TestBestHeadRisk:
    def test_antipodal_risk_is_minus_one(self):
        """Collapsed antipodal classes reach risk exactly -1 at any radius
        and any class balance."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            alpha = float(rng.uniform(0.05, 0.95))
            r = float(rng.choice([0.5, 1.0, 2.0]))
            prob = antipodal_problem(alpha=alpha, radius=r)
            assert verify_collapse_optimality(prob).risks[0] == pytest.approx(-1.0, abs=1e-12)

    def test_signed_mean_antipodal(self):
        """One hypothesis gives its mean, the stack one mean per hypothesis."""
        pt = np.array([[0.0, 2.0], [0.0, 2.0]])
        prob = antipodal_problem(alpha=0.5, radius=2.0, extra=(pt,))
        np.testing.assert_allclose(signed_mean(prob.hypotheses[0], prob), [2.0, 0.0])
        np.testing.assert_allclose(signed_mean(prob.hypotheses, prob), [[2.0, 0.0], [0.0, 0.0]])

    def test_grid_cross_check_two_dim(self):
        for seed in range(10):
            prob = generate_problem(seed)
            risks = verify_collapse_optimality(prob).risks
            for closed, h in zip(risks, prob.hypotheses):
                grid = min_head_risk_grid(h, prob, n_dirs=10_000)
                assert abs(closed - grid) < 1e-3
                assert grid >= closed - 1e-12  # the grid can never beat the optimum

    def test_constant_map_risk_depends_on_balance(self):
        """A constant map carries |2 alpha - 1| r of signed mean."""
        pt = np.array([[0.0, 1.0], [0.0, 1.0]])
        prob = antipodal_problem(alpha=0.7, extra=(pt,))
        risk = verify_collapse_optimality(prob).risks[1]
        assert risk == pytest.approx(-abs(2 * 0.7 - 1.0), abs=1e-12)


class TestPairObjective:
    def test_antipodal_value(self):
        """Every cross-class pair sits at distance 2r: objective -4 r^2."""
        for r in (1.0, 2.0):
            prob = antipodal_problem(alpha=0.4, radius=r)
            objective = verify_collapse_optimality(prob).pair_objective[0]
            assert objective == pytest.approx(-4.0 * r * r)

    def test_constant_map_value_is_zero(self):
        pt = np.array([[1.0, 0.0], [1.0, 0.0]])
        prob = antipodal_problem(extra=(pt,))
        assert verify_collapse_optimality(prob).pair_objective[1] == pytest.approx(0.0, abs=1e-15)

    def test_separation_optima_prefer_antipodal(self):
        pt = np.array([[1.0, 0.0], [1.0, 0.0]])
        ninety = np.array([[1.0, 0.0], [0.0, 1.0]])
        prob = antipodal_problem(extra=(pt, ninety))
        assert verify_collapse_optimality(prob).separation_set == (0,)

    def test_rotation_invariance(self):
        """Rotating every hypothesis by one common rotation leaves the
        separation-optimal set unchanged."""
        rng = np.random.default_rng(42)
        for seed in range(8):
            prob = generate_problem(seed)
            if prob.rep_dim != 2:
                continue
            rot = rotation(float(rng.uniform(0, 2 * np.pi)))
            rotated = FiniteProblem(
                pmf=prob.pmf,
                hypotheses=tuple(h @ rot.T for h in prob.hypotheses),
                radius=prob.radius,
            )
            assert (verify_collapse_optimality(prob).separation_set
                    == verify_collapse_optimality(rotated).separation_set)


class TestCollapsingMaps:
    def test_two_point_map_collapses(self):
        prob = antipodal_problem()
        assert verify_collapse_optimality(prob).collapsing_set == (0,)

    def test_constant_map_does_not_collapse(self):
        """Both classes on one point fails the distinct-points requirement."""
        pt = np.array([[1.0, 0.0], [1.0, 0.0]])
        prob = antipodal_problem(extra=(pt,))
        assert verify_collapse_optimality(prob).collapsing_set == (0,)

    def test_splitter_does_not_collapse(self):
        ninety = np.array([[1.0, 0.0], [0.0, 1.0]])
        prob = antipodal_problem(extra=(ninety,))
        # one input per class: still two points
        assert verify_collapse_optimality(prob).collapsing_set == (0, 1)
        # with two inputs in one class spread apart it stops collapsing
        pmf = np.array([[0.3, 0.0], [0.2, 0.0], [0.0, 0.5]])
        spread = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        two_point = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        prob3 = FiniteProblem(pmf=pmf, hypotheses=(spread, two_point))
        assert verify_collapse_optimality(prob3).collapsing_set == (1,)

    def test_image_support_size(self):
        pmf = np.full((6, 2), 1.0 / 12.0)
        two_pt = np.array([[1.0, 0.0]] * 3 + [[-1.0, 0.0]] * 3)
        spread = np.stack([np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0, 3, 6)])
        prob = FiniteProblem(pmf=pmf, hypotheses=(two_pt, spread))
        assert image_support_size(two_pt, prob) == 2
        assert image_support_size(spread, prob) == 6


class TestCollapseOptimality:
    def test_equality_on_generated_problems(self):
        for seed in range(30):
            rep = verify_collapse_optimality(generate_problem(seed))
            assert rep.assumption_overlap
            assert rep.assumption_support
            assert rep.equality is True
            assert set(rep.min_risk_set) == set(rep.separation_set) & set(rep.collapsing_set)

    def test_verdict_withheld_when_support_assumption_fails(self):
        """Constant maps have a one-point image, breaking the support-size
        assumption, so the check must refuse to rule."""
        for seed in range(5):
            rep = verify_collapse_optimality(with_constant_map(seed))
            assert not rep.assumption_support
            assert rep.equality is None

    def test_duplicate_optima_all_reported(self):
        h = np.array([[1.0, 0.0], [-1.0, 0.0]])
        prob = antipodal_problem(extra=(h.copy(),))
        rep = verify_collapse_optimality(prob)
        assert set(rep.separation_set) == {0, 1}
        assert set(rep.min_risk_set) == {0, 1}
        assert rep.equality is True

    def test_report_serializes(self):
        import json
        rep = verify_collapse_optimality(generate_problem(0))
        doc = json.loads(rep.to_json())
        assert doc["equality"] is True


class TestRequiredHeadNorm:
    def test_frozen_antipodal_half_risk(self):
        """Signed-mean norm r and target -1/2 need budget exactly 1/2 at
        unit radius."""
        prob = antipodal_problem()
        assert required_head_norm(prob.hypotheses[0], prob, -0.5) == pytest.approx(0.5, abs=1e-15)

    def test_trivial_target_rejected(self):
        prob = antipodal_problem()
        with pytest.raises(ValueError, match="trivial risk"):
            required_head_norm(prob.hypotheses[0], prob, 0.0)
        with pytest.raises(ValueError, match="trivial risk"):
            required_head_norm(prob.hypotheses[0], prob, 0.1)

    def test_unreachable_target_rejected(self):
        """gamma = -2 needs budget 2 > 1/r on the unit sphere."""
        prob = antipodal_problem()
        with pytest.raises(ValueError, match="risk below model capacity"):
            required_head_norm(prob.hypotheses[0], prob, -2.0)

    def test_zero_signed_mean_rejected(self):
        pt = np.array([[0.0, 1.0], [0.0, 1.0]])
        prob = antipodal_problem(alpha=0.5, extra=(pt,))
        with pytest.raises(ValueError, match="risk below model capacity"):
            required_head_norm(pt, prob, -0.5)

    def test_bisection_agrees_with_closed_form(self):
        for seed in range(10):
            prob = generate_problem(seed)
            gamma = half_best_gamma(prob)
            for h in prob.hypotheses:
                try:
                    closed = required_head_norm(h, prob, gamma)
                except ValueError:
                    with pytest.raises(ValueError):
                        required_head_norm_bisect(h, prob, gamma)
                    continue
                assert abs(closed - required_head_norm_bisect(h, prob, gamma)) < 1e-3

    def test_half_best_gamma_value(self):
        assert half_best_gamma(antipodal_problem()) == pytest.approx(-0.5)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, gamma):
        """A NaN target once came back as a NaN norm budget."""
        prob = antipodal_problem()
        with pytest.raises(ValueError, match=f"gamma must be finite, got {gamma!r}"):
            required_head_norm(prob.hypotheses[0], prob, gamma)


class TestHeadNormArgmin:
    def test_equality_on_generated_problems(self):
        for seed in range(30):
            prob = generate_problem(seed)
            rep = verify_head_norm_argmin(prob, half_best_gamma(prob))
            assert rep.assumption_overlap
            assert rep.equality is True
            assert set(rep.argmin_set) == set(rep.target_set)

    @pytest.mark.parametrize("fraction", [1e-13, 1e-200])
    def test_ties_do_not_shrink_with_gamma(self, fraction):
        """Every norm is about -gamma, so a tie rule absolute in the norms
        once put every hypothesis in the argmin at these fractions."""
        for seed in range(20):
            prob = generate_problem(seed)
            gamma = fraction * min(verify_collapse_optimality(prob).risks)
            rep = verify_head_norm_argmin(prob, gamma)
            assert rep.equality is True, (seed, rep.to_json())
            assert rep.argmin_set == verify_head_norm_argmin(prob, gamma / fraction * 0.5).argmin_set
        assert run_verification_suite(n_seeds=20, gamma_fraction=fraction).all_passed

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, gamma):
        """A NaN target once gave a report of NaN norms, an empty argmin and
        equality False, which read as a failed claim."""
        with pytest.raises(ValueError, match=f"gamma must be finite, got {gamma!r}"):
            verify_head_norm_argmin(generate_problem(0), gamma)

    def test_excluded_hypotheses_stay_out_of_argmin(self):
        prob = generate_problem(1)
        rep = verify_head_norm_argmin(prob, half_best_gamma(prob))
        assert set(rep.excluded).isdisjoint(rep.argmin_set)
        assert set(rep.excluded) | set(rep.norms) == set(range(len(prob.hypotheses)))

    def test_report_json_is_its_fields(self):
        """Both reports print as their fields in declaration order, tuples as
        lists and hypothesis indices as string keys."""
        norm_rep = HeadNormReport(gamma=-0.5, norms={0: 0.5, 2: 1 / 3}, excluded=(1,),
                                  argmin_set=(2,), target_set=(0,), assumption_overlap=True,
                                  equality=False)
        assert norm_rep.to_json() == (
            '{"gamma": -0.5, "norms": {"0": 0.5, "2": 0.3333333333333333}, "excluded": [1], '
            '"argmin_set": [2], "target_set": [0], "assumption_overlap": true, '
            '"equality": false}'
        )
        rep = OptimalityReport(separation_set=(0, 1), collapsing_set=(0,), min_risk_set=(0,),
                               risks=(-1.0, -0.25), pair_objective=(-4.0, -2.0),
                               assumption_overlap=True, assumption_support=False, equality=None)
        assert rep.to_json() == (
            '{"separation_set": [0, 1], "collapsing_set": [0], "min_risk_set": [0], '
            '"risks": [-1.0, -0.25], "pair_objective": [-4.0, -2.0], '
            '"assumption_overlap": true, "assumption_support": false, "equality": null}'
        )


class TestGeneralizationBound:
    def test_frozen_reference_value(self):
        """Independent extended-precision evaluation of the bound at
        t = r = 1, n2 = 100, delta = 0.1."""
        got = generalization_bound(1, 1, 100, 0.1)
        with mp.workdps(50):
            want = 2 / mpsqrt(100) + 5 * mpsqrt(2 * mplog(8 / mpf("0.1")) / 100)
            assert got == pytest.approx(float(want), rel=1e-14)
        assert got == pytest.approx(1.6802071873007982, abs=1e-15)

    def test_strictly_decreasing_in_sample_count(self):
        ns = [10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
        vals = [generalization_bound(1.0, 1.0, n, 0.1) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_scales_linearly_in_t_and_r(self):
        base = generalization_bound(1.0, 1.0, 64, 0.05)
        assert generalization_bound(2.0, 1.0, 64, 0.05) == pytest.approx(2 * base)
        assert generalization_bound(1.0, 3.0, 64, 0.05) == pytest.approx(3 * base)

    def test_delta_whose_reciprocal_overflows(self):
        """8 / delta overflows at delta = 1e-320, which once gave inf."""
        got = generalization_bound(1, 1, 10, 1e-320)
        with mp.workdps(50):
            delta = mpf(1e-320)   # the same double, exactly
            want = 2 / mpsqrt(10) + 5 * mpsqrt(2 * mplog(8 / delta) / 10)
            assert got == pytest.approx(float(want), rel=1e-14)

    def test_overflowing_bound_raises(self):
        with pytest.raises(OverflowError, match="overflows a double"):
            generalization_bound(1e308, 1e308, 1, 0.5)

    def test_large_t_with_small_r_is_finite(self):
        """2 t alone overflows at t = 1e308, though t r times the rest does not."""
        got = generalization_bound(1e308, 1e-10, 1, 0.5)
        with mp.workdps(50):
            t, r = mpf(1e308), mpf(1e-10)
            want = 2 * t * r + 5 * t * r * mpsqrt(2 * mplog(8 / mpf(0.5)))
            assert got == pytest.approx(float(want), rel=1e-14)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            generalization_bound(1, 1, 0, 0.1)
        with pytest.raises(ValueError, match="positive integer"):
            generalization_bound(1, 1, 2.5, 0.1)
        with pytest.raises(ValueError, match="delta"):
            generalization_bound(1, 1, 10, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            generalization_bound(-1, 1, 10, 0.1)
        for t, r in ((np.nan, 1), (np.inf, 1), (1, np.inf), (1, np.nan), (1, 0)):
            with pytest.raises(ValueError, match="finite and nonnegative and r finite and positive"):
                generalization_bound(t, r, 10, 0.1)


class TestGenerator:
    def test_deterministic(self):
        a, b = generate_problem(9), generate_problem(9)
        np.testing.assert_array_equal(a.pmf, b.pmf)
        for ha, hb in zip(a.hypotheses, b.hypotheses):
            np.testing.assert_array_equal(ha, hb)

    def test_structural_guarantees(self):
        for seed in range(25):
            prob = generate_problem(seed)
            assert 6 <= prob.m <= 12
            assert prob.rep_dim in (2, 3)
            assert prob.radius in (1.0, 2.0)
            assert 0.2 <= prob.alpha <= 0.8
            assert prob.pmf.sum() == pytest.approx(1.0, abs=1e-15)
            # class supports are disjoint: no input carries both labels
            assert not np.any((prob.pmf[:, 0] > 0) & (prob.pmf[:, 1] > 0))
            # always at least one collapsing separation optimum
            rep = verify_collapse_optimality(prob)
            assert set(rep.separation_set) & set(rep.collapsing_set)

    def test_non_collapsing_maps_have_wide_support(self):
        for seed in range(25):
            prob = generate_problem(seed)
            collapsing = set(verify_collapse_optimality(prob).collapsing_set)
            for k, h in enumerate(prob.hypotheses):
                if k not in collapsing:
                    assert image_support_size(h, prob) > 4


class TestVerificationSuite:
    def test_all_pass_with_cross_checks(self):
        result = run_verification_suite(n_seeds=25)
        assert result.n_problems == 25
        assert result.n_passed == 25
        assert result.all_passed
        assert result.failures == []

    def test_one_statistics_pass_per_problem(self, monkeypatch):
        """Outside the generator, each problem builds its signed-mean stack
        and its distance tensor once, and every check reads those."""
        calls = {"signed_mean": [], "_sq_distances": []}
        generating = []

        def counted(name):
            inner = getattr(theory, name)

            def wrapper(*args):
                if not generating:
                    calls[name].append(np.shape(args[0]))
                return inner(*args)
            return wrapper

        def generate(seed):
            generating.append(seed)
            try:
                return generate_problem(seed)
            finally:
                generating.pop()

        stacks = [generate_problem(seed).hypotheses.shape for seed in range(5)]
        for name in calls:
            monkeypatch.setattr(theory, name, counted(name))
        monkeypatch.setattr(theory, "generate_problem", generate)
        assert run_verification_suite(n_seeds=5).all_passed
        assert calls["signed_mean"] == stacks
        assert calls["_sq_distances"] == stacks

    def test_skipping_cross_checks_still_passes(self):
        result = run_verification_suite(n_seeds=10, cross_checks=False)
        assert result.all_passed

    def test_coarse_grid_passes_with_derived_tolerance(self):
        """At 2,000 directions the 3-d rings leave seed 15's risk scan
        1.10e-3 short of the closed form, beyond the old fixed 1e-3 and
        within ||E[Y rep]|| (1 - cos theta) / r."""
        result = run_verification_suite(n_seeds=30, grid_dirs=2000)
        assert result.all_passed, result.failures
        prob = generate_problem(15)
        closed = verify_collapse_optimality(prob).risks[1]
        grid = min_head_risk_grid(prob.hypotheses[1], prob, n_dirs=2000)
        assert closed - grid < -1e-3
        assert abs(closed - grid) <= -closed * _cross_check_slack(prob.rep_dim, 2000)[0]

    def test_derived_tolerance_at_default_grid_is_no_looser_than_1e_3(self):
        """Every generated problem has radius r >= 1 and rows on the radius
        sphere, so |closed risk| = ||E[Y rep]|| / r <= 1 and the closed norm
        is at most 1 / r <= 1: the slack factors bound the tolerances."""
        assert all(generate_problem(seed).radius >= 1.0 for seed in range(100))
        for p in (2, 3):
            risk_slack, norm_slack = _cross_check_slack(p, 10_000)
            assert risk_slack + ROUNDING_TOL <= 1e-3
            assert norm_slack + ROUNDING_TOL <= 1e-3

    def test_too_coarse_grid_is_rejected(self):
        for p in (2, 3):
            with pytest.raises(ValueError, match="need at least one direction, got 0"):
                _cross_check_slack(p, 0)
        with pytest.raises(ValueError, match="do not cover the 3-d sphere"):
            _cross_check_slack(3, 3)
        with pytest.raises(ValueError, match="do not cover the 4-d sphere"):
            _cross_check_slack(4, 10_000)


class TestCoveringAngle:
    def test_fan_is_half_its_spacing(self):
        dirs, theta = _directions(2, 360)
        assert theta == np.pi / 360
        mid = np.pi / 360   # halfway between the first two directions
        assert np.max(dirs @ [np.cos(mid), np.sin(mid)]) == pytest.approx(np.cos(theta))

    @pytest.mark.parametrize("n", [4, 5, 12, 100, 2000, 10_000])
    def test_ring_angle_bounds_random_probes(self, n):
        """No random unit vector lies farther than theta from the 3-d
        rings, and the farthest of 20,000 comes within 20% of it."""
        dirs, theta = _directions(3, n)
        x = np.random.default_rng(n).normal(size=(20_000, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        best_cos = np.concatenate([np.max(part @ dirs.T, axis=1) for part in np.split(x, 100)])
        farthest = np.arccos(np.clip(best_cos, -1.0, 1.0)).max()
        assert 0.8 * theta <= farthest <= theta + 1e-12

    def test_rings_need_six_directions(self):
        """Fewer than 6 directions fit no ring layout that covers the
        sphere to within 90 degrees: one equator ring leaves the poles at
        exactly 90 degrees, and one direction holds no ring at all."""
        for n in range(1, 6):
            with pytest.raises(ValueError, match="do not cover the 3-d sphere"):
                _cross_check_slack(3, n)
        assert len(_directions(3, 6)[0]) == 6
        _cross_check_slack(3, 6)

    @pytest.mark.parametrize("n, spiral_theta", [(2000, 0.06100490889916341),
                                                 (10_000, 0.027281442562976904)])
    def test_rings_fit_the_budget_and_cover_no_worse_than_the_spiral(self, n, spiral_theta):
        """The rings use at most n directions, and their covering angle is
        no larger than the Fibonacci spiral's measured one on n directions,
        so neither slack factor of the cross-checks loosens."""
        dirs, theta = _directions(3, n)
        assert len(dirs) <= n
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-15)
        assert theta <= spiral_theta
