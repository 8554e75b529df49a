"""The shipped verification reports checked against a frozen copy of the old ones.

``verify_collapse_optimality`` now reads every pair objective, best-head
risk and collapse test off the problem's (K, m, p) hypothesis stack once,
the suite hands that report's risks and collapsing separation optima on to
the head-norm check and the risk cross-check and scans the direction grid
once per problem, 1-d lengths are ``math.sqrt(v.dot(v))`` and the
support count takes every row-pair distance in one array.  None
of that may change a result: the frozen functions below keep the
verification code as it stood while each statistic was recomputed wherever
it was needed, and every report, generated problem and suite outcome must
match them exactly; where the frozen bisection cannot reach a target, the
shipped suite must stop at the same hypothesis and seed.  The suite's grid
head norm, read off the same direction scan as the grid risk, must match
the bisection it replaced.
"""

import json
import re

import numpy as np
import pytest

import samediff.theory as theory
from samediff.theory import (
    TIE_TOL,
    MIN_SUPPORT,
    ROUNDING_TOL,
    FiniteProblem,
    HeadNormReport,
    OptimalityReport,
    SuiteResult,
    _cross_check_slack,
    generate_problem,
    run_verification_suite,
    signed_mean,
    verify_collapse_optimality,
    verify_head_norm_argmin,
)
from samediff.rng import substream
from conftest import (
    frozen_min_head_risk,
    frozen_pair_objective_value,
    image_support_size,
    min_head_risk_grid,
    required_head_norm_bisect,
    with_constant_map,
)

SEEDS = range(300)
SUITE_SEEDS = 200


# -- the frozen verification code -------------------------------------------


def frozen_argmin_set(values, tol=TIE_TOL):
    vmin = float(np.min(values))
    return tuple(int(i) for i in np.flatnonzero(values <= vmin + tol))


def frozen_separation_optima(prob, tol=TIE_TOL):
    vals = np.array([frozen_pair_objective_value(h, prob) for h in prob.hypotheses])
    return frozen_argmin_set(vals, tol)


def frozen_is_collapsing(h, prob, tol=TIE_TOL):
    h = np.asarray(h, dtype=np.float64)
    pts = []
    for col in (0, 1):
        rows = h[np.flatnonzero(prob.pmf[:, col] > 0.0)]
        if np.max(np.linalg.norm(rows - rows[0], axis=1), initial=0.0) > tol:
            return False
        pts.append(rows[0])
    return bool(np.linalg.norm(pts[0] - pts[1]) > tol)


def frozen_collapsing_maps(prob, tol=TIE_TOL):
    return tuple(k for k, h in enumerate(prob.hypotheses) if frozen_is_collapsing(h, prob, tol))


def frozen_min_risk_maps(prob, tol=TIE_TOL):
    vals = np.array([frozen_min_head_risk(h, prob) for h in prob.hypotheses])
    return frozen_argmin_set(vals, tol)


def frozen_image_support_size(h, prob, tol=TIE_TOL):
    h = np.asarray(h, dtype=np.float64)
    rows = h[np.flatnonzero(prob.pmf.sum(axis=1) > 0.0)]
    reps = []
    for row in rows:
        if not any(np.linalg.norm(row - q) <= tol for q in reps):
            reps.append(row)
    return len(reps)


def frozen_verify_collapse_optimality(prob, tol=TIE_TOL):
    d_set = frozen_separation_optima(prob, tol)
    s_set = frozen_collapsing_maps(prob, tol)
    f_set = frozen_min_risk_maps(prob, tol)
    overlap = tuple(sorted(set(d_set) & set(s_set)))
    assumption_overlap = len(overlap) > 0
    assumption_support = all(
        frozen_image_support_size(prob.hypotheses[k], prob, tol) > MIN_SUPPORT
        for k in range(len(prob.hypotheses))
        if k not in s_set
    )
    equality = None
    if assumption_overlap and assumption_support:
        equality = set(f_set) == set(overlap)
    risks = tuple(float(frozen_min_head_risk(h, prob)) for h in prob.hypotheses)
    objective = tuple(float(frozen_pair_objective_value(h, prob)) for h in prob.hypotheses)
    return OptimalityReport(
        separation_set=d_set,
        collapsing_set=s_set,
        min_risk_set=f_set,
        risks=risks,
        pair_objective=objective,
        assumption_overlap=assumption_overlap,
        assumption_support=assumption_support,
        equality=equality,
    )


def frozen_required_head_norm(h, prob, gamma):
    if gamma >= 0:
        raise ValueError("trivial risk: target must be negative")
    norm_e = float(np.linalg.norm(signed_mean(h, prob)))
    if norm_e <= 0.0:
        raise ValueError("risk below model capacity: this hypothesis cannot reach it")
    t = -gamma / norm_e
    if t > 1.0 / prob.radius + TIE_TOL:
        raise ValueError("risk below model capacity: needs head norm beyond 1/r")
    return t


def frozen_verify_head_norm_argmin(prob, gamma, tol=TIE_TOL):
    norms = {}
    excluded = []
    for k, h in enumerate(prob.hypotheses):
        try:
            norms[k] = frozen_required_head_norm(h, prob, gamma)
        except ValueError:
            excluded.append(k)
    target = tuple(sorted(
        set(frozen_separation_optima(prob, tol)) & set(frozen_collapsing_maps(prob, tol))
    ))
    assumption_overlap = len(target) > 0
    equality = None
    if assumption_overlap and norms:
        vals = np.array([norms[k] for k in sorted(norms)])
        keys = sorted(norms)
        vmin = float(vals.min())
        argmin = tuple(keys[i] for i in np.flatnonzero(vals <= vmin + tol))
        equality = set(argmin) == set(target)
    else:
        argmin = ()
    return HeadNormReport(
        gamma=float(gamma),
        norms=norms,
        excluded=tuple(excluded),
        argmin_set=argmin,
        target_set=target,
        assumption_overlap=assumption_overlap,
        equality=equality,
    )


def frozen_unit(rng, p):
    while True:
        v = rng.normal(size=p)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def frozen_orthogonal_to(rng, a):
    while True:
        v = rng.normal(size=a.shape[0])
        v = v - np.dot(v, a) * a
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def frozen_two_point_map(m_plus, m, pt_plus, pt_minus):
    h = np.empty((m, pt_plus.shape[0]))
    h[:m_plus] = pt_plus
    h[m_plus:] = pt_minus
    return h


def frozen_generate_problem(seed, include_constant_maps=False):
    rng = substream(seed, "theory", "generate")
    m = int(rng.integers(6, 13))
    p = 2 if rng.random() < 0.5 else 3
    r = 1.0 if rng.random() < 0.7 else 2.0
    m_plus = int(rng.integers(1, m))
    alpha = float(rng.uniform(0.2, 0.8))

    w_plus = rng.uniform(0.5, 1.5, size=m_plus)
    w_minus = rng.uniform(0.5, 1.5, size=m - m_plus)
    pmf = np.zeros((m, 2))
    pmf[:m_plus, 0] = alpha * w_plus / w_plus.sum()
    pmf[m_plus:, 1] = (1.0 - alpha) * w_minus / w_minus.sum()
    pmf /= pmf.sum()

    hyps = []
    axis = frozen_unit(rng, p)
    hyps.append(frozen_two_point_map(m_plus, m, axis * r, -axis * r))
    if rng.random() < 0.5:
        axis2 = frozen_unit(rng, p)
        hyps.append(frozen_two_point_map(m_plus, m, axis2 * r, -axis2 * r))
    for _ in range(int(rng.integers(1, 3))):
        a = frozen_unit(rng, p)
        theta = rng.uniform(np.pi / 6.0, 5.0 * np.pi / 6.0)
        b = np.cos(theta) * a + np.sin(theta) * frozen_orthogonal_to(rng, a)
        b = b / np.linalg.norm(b)
        hyps.append(frozen_two_point_map(m_plus, m, a * r, b * r))
    for _ in range(int(rng.integers(1, 3))):
        while True:
            pts = np.stack([frozen_unit(rng, p) * r for _ in range(m)])
            diff = pts[:, None, :] - pts[None, :, :]
            d = np.linalg.norm(diff, axis=2) + np.eye(m)
            if d.min() > 1e-6:
                break
        hyps.append(pts)
    if include_constant_maps:
        hyps.append(np.tile(frozen_unit(rng, p) * r, (m, 1)))

    return FiniteProblem(pmf=pmf, hypotheses=tuple(hyps), radius=r)


def frozen_run_verification_suite(n_seeds, grid_dirs, gamma_fraction, generate):
    result = SuiteResult(n_problems=n_seeds, n_passed=0)
    for seed in range(n_seeds):
        prob = generate(seed)
        issues = []
        rep = frozen_verify_collapse_optimality(prob)
        if not rep.assumption_overlap:
            issues.append("no collapsing separation optimum")
        if not rep.assumption_support:
            issues.append("support-size assumption violated")
        if rep.equality is not True:
            issues.append(f"collapse-optimality equality failed: {rep.to_json()}")
        gamma = gamma_fraction * min(rep.risks)
        norm_rep = frozen_verify_head_norm_argmin(prob, gamma)
        if norm_rep.equality is not True:
            issues.append(f"head-norm argmin equality failed: {norm_rep.to_json()}")
        risk_slack, norm_slack = _cross_check_slack(prob.rep_dim, grid_dirs)
        for k, h in enumerate(prob.hypotheses):
            closed = frozen_min_head_risk(h, prob)
            grid = min_head_risk_grid(h, prob, n_dirs=grid_dirs)
            if abs(closed - grid) > -closed * risk_slack + ROUNDING_TOL:
                issues.append(f"risk cross-check off for hypothesis {k}: {closed} vs {grid}")
        for k in norm_rep.norms:
            closed = norm_rep.norms[k]
            try:
                bisected = required_head_norm_bisect(prob.hypotheses[k], prob, gamma,
                                                     n_dirs=grid_dirs)
            except ValueError as exc:
                raise ValueError(f"{exc}: hypothesis {k} of seed {seed}") from exc
            if abs(closed - bisected) > closed * norm_slack + ROUNDING_TOL:
                issues.append(f"norm cross-check off for hypothesis {k}: {closed} vs {bisected}")
        if issues:
            result.failures.append({"seed": seed, "issues": issues})
        else:
            result.n_passed += 1
    return result


# -- the comparisons --------------------------------------------------------


def generator(constant):
    """``generate_problem``, appending a constant map for the constant-maps cases."""
    return with_constant_map if constant else generate_problem


def problems(constant):
    return [generator(constant)(seed) for seed in SEEDS]


@pytest.mark.parametrize("constant", [False, True], ids=["plain", "constant-maps"])
class TestReports:
    def test_generated_problems_are_unchanged(self, constant):
        for seed, prob in zip(SEEDS, problems(constant)):
            ref = frozen_generate_problem(seed, include_constant_maps=constant)
            assert prob.radius == ref.radius
            assert prob.pmf.tobytes() == ref.pmf.tobytes()
            assert len(prob.hypotheses) == len(ref.hypotheses)
            for h, h_ref in zip(prob.hypotheses, ref.hypotheses):
                assert h.tobytes() == h_ref.tobytes(), seed

    def test_collapse_optimality_report(self, constant):
        verdicts = set()
        for prob in problems(constant):
            rep = verify_collapse_optimality(prob)
            assert rep.to_json() == frozen_verify_collapse_optimality(prob).to_json()
            verdicts.add(rep.equality)
        # the plain generator always passes; a constant map withholds the verdict
        assert verdicts == ({None} if constant else {True})

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9, 1.0])
    def test_head_norm_report(self, constant, fraction):
        for prob in problems(constant):
            rep = verify_collapse_optimality(prob)
            gamma = fraction * min(rep.risks)
            ref = frozen_verify_head_norm_argmin(prob, gamma).to_json()
            assert verify_head_norm_argmin(prob, gamma).to_json() == ref

    def test_image_support_size(self, constant):
        for prob in problems(constant):
            for h in prob.hypotheses:
                assert image_support_size(h, prob) == frozen_image_support_size(h, prob)


def test_image_support_size_near_the_tolerance():
    """Rows a fraction of the tolerance apart: which rows stand for which
    depends on the greedy order, and the counts must still agree."""
    rng = np.random.default_rng(5)
    pmf = np.full((8, 2), 1.0 / 16)
    prob = FiniteProblem(pmf=pmf, hypotheses=(np.tile([1.0, 0.0], (8, 1)),))
    for _ in range(200):
        angles = np.cumsum(rng.choice([0.0, 0.4, 0.7, 1.1], size=8)) * TIE_TOL
        h = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for tol in (0.5 * TIE_TOL, TIE_TOL, 2.0 * TIE_TOL):
            assert image_support_size(h, prob, tol) == frozen_image_support_size(h, prob, tol)


def test_collapse_report_near_the_tolerance():
    """Hypotheses whose rows sit fractions of the tolerance apart: the
    collapse test and the support count, read off the problem's one
    distance tensor, must give the frozen report."""
    rng = np.random.default_rng(11)
    pmf = np.repeat([[1.0 / 8, 0.0], [0.0, 1.0 / 8]], 4, axis=0)

    def arc(start, steps):
        angles = start + np.cumsum(steps)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def tiny(n):
        return rng.choice([0.0, 0.4, 0.7, 1.1], size=n) * TIE_TOL

    seen = set()
    for _ in range(200):
        hyps = (
            np.vstack([arc(0.0, tiny(4)), arc(np.pi, tiny(4))]),    # near-antipodal classes
            np.vstack([arc(0.0, tiny(4)), arc(tiny(1)[0], tiny(4))]),   # classes nearly one point
            arc(0.0, tiny(8) + rng.choice([0.0, 0.5], size=8)),    # support near MIN_SUPPORT
        )
        prob = FiniteProblem(pmf=pmf, hypotheses=hyps)
        rep = verify_collapse_optimality(prob)
        assert rep.to_json() == frozen_verify_collapse_optimality(prob).to_json()
        seen.add((rep.collapsing_set, rep.assumption_support))
    assert len(seen) > 2


def outcome(run):
    """What ``run()`` gives: the suite's counts and failure texts, or, when
    it raises ``ValueError``, the hypothesis and seed the error names."""
    try:
        result = run()
    except ValueError as exc:
        return re.search(r"hypothesis \d+ of seed \d+", str(exc)).group()
    return result.n_problems, result.n_passed, json.dumps(result.failures)


@pytest.mark.parametrize("grid_dirs", [10_000, 2_000])
@pytest.mark.parametrize("constant", [False, True], ids=["plain", "constant-maps"])
def test_suite_outcome(monkeypatch, grid_dirs, constant):
    generate = generator(constant)
    ref = outcome(lambda: frozen_run_verification_suite(SUITE_SEEDS, grid_dirs, 0.5, generate))
    monkeypatch.setattr(theory, "generate_problem", generate)
    assert outcome(lambda: run_verification_suite(SUITE_SEEDS, grid_dirs=grid_dirs)) == ref
    if constant and grid_dirs == 2_000:
        # on 1,955 ring directions no head within 1/r reaches gamma for the
        # hypothesis needing 0.99982 of that cap, so both suites stop there
        assert ref == "hypothesis 4 of seed 114"
    else:
        # with constant maps every problem fails, so the failure texts are compared too
        assert ref[1] == (0 if constant else SUITE_SEEDS)


@pytest.mark.parametrize("grid_dirs", [10_000, 2_000, 4])
@pytest.mark.parametrize("constant", [False, True], ids=["plain", "constant-maps"])
def test_grid_norm_matches_bisection(grid_dirs, constant):
    """The suite's grid norm, -gamma / best_dot off the one direction scan,
    and the reference bisection agree on reachability for every hypothesis
    and, where the norm is reachable, within 1e-15 relative."""
    reachable = 0
    for prob in problems(constant):
        best = min(frozen_min_head_risk(h, prob) for h in prob.hypotheses)
        dots = theory._best_dots(prob, grid_dirs)
        for fraction in (0.1, 0.5, 0.9, 1.0):
            gamma = fraction * best
            for h, best_dot in zip(prob.hypotheses, dots):
                grid = theory._grid_head_norm(best_dot, gamma, prob.radius)
                try:
                    bisected = required_head_norm_bisect(h, prob, gamma, n_dirs=grid_dirs)
                except ValueError:
                    assert grid is None
                    continue
                assert grid is not None
                assert abs(grid - bisected) <= 1e-15 * bisected
                reachable += 1
    assert reachable > 0
