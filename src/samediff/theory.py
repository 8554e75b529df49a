"""Brute-force oracle for the theory behind pair-supervised training.

Everything here works on finite problems small enough to enumerate: a joint
pmf over m abstract inputs and two classes (+1 and -1), and an explicit
hypothesis list where each hypothesis is the composed representation map,
one point on the sphere of radius r per input.

Verified claims, all by exhaustive computation:

* the hypotheses minimizing the true pair objective (expected negated
  squared distance between representations of different-class inputs) are
  exactly the maps that collapse each class to one point and keep the two
  class points distinct, and those are also exactly the hypotheses whose
  best linear head achieves the minimal true risk;
* among hypotheses that can reach a given negative risk level at all, the
  smallest head norm needed to reach it is minimized by the same set;
* the deviation bound for the head stage decreases in the labeled-sample
  count at the stated rate.

Closed forms are cross-checked against a dense search over directions:
the best grid head gives both the best risk and, scaled, the smallest
head norm reaching a target risk, so no claim rests on a single
derivation.

Each problem holds its hypotheses as one read-only (K, m, p) array and,
built on first use, one statistics object over it: the signed means, their
lengths and the pairwise squared distances.  It feeds every check: the
collapse report (kept on the problem), the head-norm check, which takes its
norms from the lengths and its target set from that report, and the one
grid scan per problem behind both of the suite's cross-checks.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .rng import substream

__all__ = [
    "FiniteProblem",
    "OptimalityReport",
    "HeadNormReport",
    "SuiteResult",
    "signed_mean",
    "image_support_size",
    "verify_collapse_optimality",
    "required_head_norm",
    "verify_head_norm_argmin",
    "generalization_bound",
    "generate_problem",
    "run_verification_suite",
]

TIE_TOL = 1e-12     # argmin membership and point-coincidence tolerance
ROUNDING_TOL = 1e-12   # rounding allowance of the dense-search cross-checks
PMF_TOL = 1e-12
ROW_NORM_TOL = 1e-9
MIN_SUPPORT = 4     # non-collapsing hypotheses must map onto more points


@dataclass(frozen=True)
class FiniteProblem:
    """Finite two-class problem with an explicit hypothesis list.

    ``pmf[i, 0]`` is P(X = i, Y = +1) and ``pmf[i, 1]`` is P(X = i, Y = -1).
    Each hypothesis is an (m, p) array of representation points, one row per
    input, every row on the sphere of the given radius.  The hypotheses are
    given as any sequence of such arrays and kept as one read-only
    (K, m, p) stack.
    """

    pmf: np.ndarray
    hypotheses: np.ndarray
    radius: float = 1.0

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.ndim != 2 or pmf.shape[1] != 2:
            raise ValueError("pmf must be (m, 2)")
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be nonnegative")
        if abs(pmf.sum() - 1.0) > PMF_TOL:
            raise ValueError(f"pmf must sum to 1 within {PMF_TOL}, got {pmf.sum()!r}")
        alpha = pmf[:, 0].sum()
        if not (PMF_TOL < alpha < 1.0 - PMF_TOL):
            raise ValueError("both classes need strictly positive probability")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        hyps = [np.asarray(h, dtype=np.float64) for h in self.hypotheses]
        if not hyps:
            raise ValueError("at least one hypothesis required")
        m = pmf.shape[0]
        p = hyps[0].shape[1]
        for k, h in enumerate(hyps):
            if h.shape != (m, p):
                raise ValueError(f"hypothesis {k} must have shape ({m}, {p})")
        stack = np.stack(hyps)
        gap = np.abs(np.sqrt(np.add.reduce(stack * stack, axis=2)) - self.radius)
        off = ~np.all(gap <= ROW_NORM_TOL * max(self.radius, 1.0), axis=1)   # NaN rows too
        if off.any():
            raise ValueError(f"hypothesis {int(np.argmax(off))} has rows off the "
                             f"radius-{self.radius} sphere")
        stack.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "hypotheses", stack)

    @property
    def m(self) -> int:
        return self.pmf.shape[0]

    @property
    def rep_dim(self) -> int:
        return self.hypotheses.shape[2]

    @property
    def alpha(self) -> float:
        return float(self.pmf[:, 0].sum())

    @functools.cached_property
    def _statistics(self) -> "_Statistics":
        """Every check's statistics, each one expression over the stack."""
        means = signed_mean(self.hypotheses, self)
        # the stacked (1, p) @ (p, 1) products sum each row as e.dot(e) does
        lengths = np.sqrt(np.matmul(means[:, None, :], means[:, :, None])[:, 0, 0])
        return _Statistics(means, lengths, _sq_distances(self.hypotheses))

    @functools.cached_property
    def _optimality(self) -> "OptimalityReport":
        """``verify_collapse_optimality``'s report: per hypothesis, the
        best-head risk -||E[Y rep(X)]|| / r, the pair objective (expected
        negated squared distance of two draws with different labels), the
        collapse test (each class on one point, the two points distinct)."""
        stats = self._statistics
        risks = -stats.lengths / self.radius
        cross = np.outer(self.pmf[:, 0], self.pmf[:, 1])
        objective = (np.sum(cross * -stats.sq_dists, axis=(1, 2))
                     / (self.alpha * (1.0 - self.alpha)))
        dist = np.sqrt(stats.sq_dists)
        rows = [np.flatnonzero(self.pmf[:, col] > 0.0) for col in (0, 1)]
        collapsing = dist[:, rows[0][0], rows[1][0]] > TIE_TOL
        for idx in rows:
            collapsing &= dist[:, idx[0], idx].max(axis=1) <= TIE_TOL
        d_set = _argmin_set(objective)
        s_set = tuple(np.flatnonzero(collapsing).tolist())
        f_set = _argmin_set(risks)
        assumption_overlap = not set(d_set).isdisjoint(s_set)
        support = np.flatnonzero(self.pmf.sum(axis=1) > 0.0)
        near = dist[np.ix_(~collapsing, support, support)] <= TIE_TOL
        assumption_support = all(_support_count(n) > MIN_SUPPORT for n in near.tolist())
        equality = (set(f_set) == set(d_set) & set(s_set)
                    if assumption_overlap and assumption_support else None)
        return OptimalityReport(
            separation_set=d_set,
            collapsing_set=s_set,
            min_risk_set=f_set,
            risks=tuple(risks.tolist()),
            pair_objective=tuple(objective.tolist()),
            assumption_overlap=assumption_overlap,
            assumption_support=assumption_support,
            equality=equality,
        )


class _Statistics(NamedTuple):
    """One problem's statistics over its (K, m, p) hypothesis stack."""

    means: np.ndarray      # (K, p) signed means E[Y rep(X)]
    lengths: np.ndarray    # (K,) their Euclidean lengths
    sq_dists: np.ndarray   # (K, m, m) squared distances between each map's points


def _sq_distances(x: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of x, (..., n, p) to (..., n, n)."""
    diff = x[..., :, None, :] - x[..., None, :, :]
    return np.sum(diff * diff, axis=-1)


# -- best-head risk -------------------------------------------------------


def _length(v: np.ndarray) -> float:
    """Euclidean length of a 1-d vector, as ``np.linalg.norm`` computes it."""
    return math.sqrt(float(v.dot(v)))


def signed_mean(h: np.ndarray, prob: FiniteProblem) -> np.ndarray:
    """E[Y * rep(X)]: class-signed mean of the representation points, a
    (p,) vector for one (m, p) hypothesis and (K, p) for a (K, m, p) stack."""
    w = prob.pmf[:, 0] - prob.pmf[:, 1]
    return w @ np.asarray(h, dtype=np.float64)


@functools.lru_cache(maxsize=8)
def _directions(p: int, n: int) -> tuple[np.ndarray, float]:
    """At most n near-uniform unit directions and their covering angle: an
    exact fan in 2-d, latitude rings in 3-d (generated problems are 2-d or
    3-d).  The covering angle is the largest angle from any unit vector to
    its nearest direction: half the spacing for the fan.  The rings sit at
    the centres of equal latitude bands, as many as fit in n (``_rings``),
    and every unit vector lies in some band, within half that band's ring
    spacing in longitude of one of its directions.  Along a meridian the
    distance to a fixed ring direction peaks at a band edge, and it grows
    with the longitude offset, so the covering angle is at most the largest
    distance from a band edge, half a spacing over, to a ring direction.
    Fewer than two directions hold no ring and claim no coverage.  Cached
    per (p, n), the directions read-only: every hypothesis shares them.
    """
    if n < 1:
        raise ValueError(f"need at least one direction, got {n}")
    if p not in (2, 3):
        raise ValueError(f"{n} directions do not cover the {p}-d sphere: "
                         "direction grids exist in 2-d and 3-d only")
    if p == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        theta = math.pi / n
    else:
        dirs, theta = _rings(n)
    dirs.flags.writeable = False
    return dirs, theta


def _rings(n: int) -> tuple[np.ndarray, float]:
    """The most latitude rings whose directions fit in n, and the bound on
    their covering angle: one arccos per band edge, half a spacing over."""
    def layout(n_lat):
        lat = (np.arange(n_lat) + 0.5) * (np.pi / n_lat) - np.pi / 2.0
        return lat, np.ceil(2.0 * n_lat * np.cos(lat)).astype(np.int64)

    # n_lat rings hold at least 4 n_lat^2 / pi directions, so no larger n_lat fits
    fits = [k for k in range(1, math.isqrt(n) + 2) if layout(k)[1].sum() <= n]
    if not fits:
        return np.empty((0, 3)), math.pi   # no ring: claim no coverage
    n_lat = fits[-1]
    lat, size = layout(n_lat)
    phi = np.repeat(lat, size)
    lon = np.concatenate([np.arange(k) * (2.0 * np.pi / k) for k in size])
    dirs = np.stack([np.cos(phi) * np.cos(lon), np.cos(phi) * np.sin(lon), np.sin(phi)], axis=1)
    edge = lat[:, None] + np.array([-0.5, 0.5]) * (np.pi / n_lat)
    cos_far = (np.sin(edge) * np.sin(lat)[:, None]
               + np.cos(edge) * (np.cos(lat) * np.cos(np.pi / size))[:, None])
    return dirs, float(np.arccos(cos_far.min()))


def _best_dots(prob: FiniteProblem, n_dirs: int) -> list[float]:
    """Per hypothesis, the largest <d, E[Y rep(X)]> over the ``n_dirs``
    grid directions d: the grid's best unit head scores risk -best_dot."""
    dirs, _ = _directions(prob.rep_dim, n_dirs)
    # (n, p) @ (K, p, 1) scores each hypothesis as dirs @ e does, to the bit
    return np.matmul(dirs, prob._statistics.means[:, :, None]).max(axis=1)[:, 0].tolist()


# -- the optimal sets -----------------------------------------------------


def _argmin_set(values: np.ndarray) -> tuple[int, ...]:
    return tuple((values <= values.min() + TIE_TOL).nonzero()[0].tolist())


def image_support_size(h: np.ndarray, prob: FiniteProblem, tol: float = TIE_TOL) -> int:
    """Number of distinct representation points over positive-probability inputs."""
    rows = np.asarray(h, dtype=np.float64)[np.flatnonzero(prob.pmf.sum(axis=1) > 0.0)]
    return _support_count((np.sqrt(_sq_distances(rows)) <= tol).tolist())


def _support_count(near: list[list[bool]]) -> int:
    """Distinct points given which rows lie within the tolerance of which."""
    reps: list[int] = []   # greedy: a row is new unless near an earlier representative
    for i, row_near in enumerate(near):
        if not any(row_near[j] for j in reps):
            reps.append(i)
    return len(reps)


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of the collapse-optimality check on one finite problem."""

    separation_set: tuple[int, ...]
    collapsing_set: tuple[int, ...]
    min_risk_set: tuple[int, ...]
    risks: tuple[float, ...]
    pair_objective: tuple[float, ...]
    assumption_overlap: bool          # some hypothesis is both collapsing and separation-optimal
    assumption_support: bool          # every non-collapsing hypothesis maps onto > 4 points
    equality: bool | None             # min-risk set == overlap; None when assumptions fail

    @property
    def overlap(self) -> tuple[int, ...]:
        """The collapsing separation optima, in index order."""
        return tuple(sorted(set(self.separation_set) & set(self.collapsing_set)))

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def verify_collapse_optimality(prob: FiniteProblem) -> OptimalityReport:
    """Check that the best-risk hypotheses are exactly the collapsing
    separation optima, provided the two stated assumptions hold.  When
    either fails the verdict is withheld (None) rather than evaluated on
    unsupported ground.  The report is computed once and kept on the problem.
    """
    return prob._optimality


# -- smallest adequate head norm ------------------------------------------


def required_head_norm(h: np.ndarray, prob: FiniteProblem, gamma: float) -> float:
    """Smallest head-norm budget whose ball contains a head with true risk gamma.

    Closed form -gamma / ||E[Y rep(X)]|| for attainable negative gamma.
    Raises for a non-finite gamma, for gamma >= 0 (trivial risk: the zero
    head already achieves it) and for targets beyond the norm cap 1/r.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    return _head_norm(_length(signed_mean(h, prob)), gamma, prob.radius)


def _head_norm(length: float, gamma: float, radius: float) -> float:
    """``required_head_norm`` from the signed mean's length: -gamma / length."""
    if gamma >= 0:
        raise ValueError("trivial risk: target must be negative")
    if length <= 0.0:
        raise ValueError("risk below model capacity: this hypothesis cannot reach it")
    t = -gamma / length
    if t > 1.0 / radius + TIE_TOL:
        raise ValueError("risk below model capacity: needs head norm beyond 1/r")
    return t


def _grid_head_norm(best_dot: float, gamma: float, radius: float) -> float | None:
    """Dense-search cross-check of ``required_head_norm`` from the grid's
    ``_best_dots``: a head of norm t along the best direction scores
    -t * best_dot, so t = -gamma / best_dot, or None if even 1/r falls short."""
    if -(1.0 / radius) * max(best_dot, 0.0) > gamma:
        return None
    return -gamma / best_dot


@dataclass(frozen=True)
class HeadNormReport:
    """Outcome of the head-norm argmin check on one finite problem."""

    gamma: float
    norms: dict[int, float]           # hypothesis index -> required norm budget
    excluded: tuple[int, ...]         # hypotheses that cannot reach gamma at all
    argmin_set: tuple[int, ...]
    target_set: tuple[int, ...]       # collapsing separation optima
    assumption_overlap: bool
    equality: bool | None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def verify_head_norm_argmin(prob: FiniteProblem, gamma: float) -> HeadNormReport:
    """Check that the hypotheses needing the least head norm to reach gamma
    are exactly the collapsing separation optima, the ``overlap`` of the
    problem's ``verify_collapse_optimality`` report.  Hypotheses for which
    gamma is unattainable are excluded from the argmin and reported; the
    verdict is withheld when no hypothesis is both collapsing and
    separation-optimal.  Ties are decided on norm / -gamma = 1 / ||E[Y rep(X)]||,
    taken from the cached lengths, so they neither shrink with gamma nor
    round together when the norms are subnormal.  Raises for a non-finite
    gamma.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    target = verify_collapse_optimality(prob).overlap
    norms: dict[int, float] = {}
    excluded: list[int] = []
    for k, length in enumerate(prob._statistics.lengths.tolist()):
        try:
            norms[k] = _head_norm(length, gamma, prob.radius)
        except ValueError:
            excluded.append(k)
    assumption_overlap = len(target) > 0
    equality = None
    argmin: tuple[int, ...] = ()
    if assumption_overlap and norms:
        keys = list(norms)
        argmin = tuple(keys[i] for i in _argmin_set(1.0 / prob._statistics.lengths[keys]))
        equality = set(argmin) == set(target)
    return HeadNormReport(
        gamma=float(gamma),
        norms=norms,
        excluded=tuple(excluded),
        argmin_set=argmin,
        target_set=target,
        assumption_overlap=assumption_overlap,
        equality=equality,
    )


# -- deviation bound ------------------------------------------------------


def generalization_bound(t: float, r: float, n2: int, delta: float) -> float:
    """High-probability deviation bound for the head stage:
    2 t r / sqrt(n2) + 5 t r sqrt(2 ln(8/delta) / n2), for a labeled sample
    of size n2 at confidence 1 - delta.  ln(8/delta) is taken as
    ln 8 - ln delta, which no delta overflows; a bound too large for a
    double raises ``OverflowError``.
    """
    if not isinstance(n2, (int, np.integer)) or n2 < 1:
        raise ValueError("n2 must be a positive integer")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if not (0.0 <= t < math.inf and 0.0 < r < math.inf):   # also rejects NaN
        raise ValueError(f"t must be finite and nonnegative and r finite and positive, "
                         f"got t={t!r}, r={r!r}")
    log_term = math.log(8.0) - math.log(delta)
    bound = t * r * (2.0 / math.sqrt(n2) + 5.0 * math.sqrt(2.0 * log_term / n2))
    if not math.isfinite(bound):
        raise OverflowError(f"the bound at t={t!r}, r={r!r}, n2={n2} overflows a double")
    return bound


# -- randomized problem generator -----------------------------------------


def _unit(rng: np.random.Generator, p: int, orthogonal_to: np.ndarray | None = None) -> np.ndarray:
    """A random unit vector in p-d, orthogonal to the given unit vector if any."""
    while True:
        v = rng.normal(size=p)
        if orthogonal_to is not None:
            v = v - np.dot(v, orthogonal_to) * orthogonal_to
        n = _length(v)
        if n > 1e-6:
            return v / n


def generate_problem(seed: int) -> FiniteProblem:
    """Random finite problem whose hypothesis list exercises every regime:
    at least one exactly antipodal two-point map (so a collapsing
    separation optimum exists), some non-antipodal two-point maps, and
    input-splitting maps whose image has more than 4 support points (so the
    support-size assumption holds for every non-collapsing hypothesis).  It
    holds no constant map, whose one-point image would violate that
    assumption.  Each input-splitting map is one (m, p) normal draw with no
    per-row rejection: a zero-length row scales to NaN and fails the
    coincidence test.
    """
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
    pmf /= pmf.sum()   # exact renormalization against rounding

    counts = (m_plus, m - m_plus)
    hyps: list[np.ndarray] = []
    axis = _unit(rng, p)
    hyps.append(np.repeat([axis * r, -axis * r], counts, axis=0))
    if rng.random() < 0.5:
        axis2 = _unit(rng, p)
        hyps.append(np.repeat([axis2 * r, -axis2 * r], counts, axis=0))
    for _ in range(int(rng.integers(1, 3))):
        a = _unit(rng, p)
        theta = rng.uniform(np.pi / 6.0, 5.0 * np.pi / 6.0)
        b = np.cos(theta) * a + np.sin(theta) * _unit(rng, p, orthogonal_to=a)
        b = b / _length(b)
        hyps.append(np.repeat([a * r, b * r], counts, axis=0))
    for _ in range(int(rng.integers(1, 3))):
        while True:
            v = rng.normal(size=(m, p))
            # rows over their lengths, the stacked (1, p) @ (p, 1) products summing as v.dot(v)
            pts = v / np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0]) * r
            if (np.sqrt(_sq_distances(pts)) + np.eye(m)).min() > 1e-6:
                break
        hyps.append(pts)

    return FiniteProblem(pmf=pmf, hypotheses=tuple(hyps), radius=r)


# -- the whole suite ------------------------------------------------------


@dataclass
class SuiteResult:
    """Aggregate outcome over many generated problems."""

    n_problems: int
    n_passed: int
    failures: list[dict] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == self.n_problems and not self.failures


def _cross_check_slack(p: int, n_dirs: int) -> tuple[float, float]:
    """How far the dense searches may miss on ``n_dirs`` directions in p-d.
    With covering angle theta, some direction lies within theta of
    E[Y rep(X)], so the scan finds at least cos(theta) of the best dot
    product: the grid's best head can fall short of the closed-form risk by
    (1 - cos theta) times its size, and the norm it needs to reach a target
    risk can overshoot the closed-form norm by (1 / cos theta - 1) times
    its size.  Returns those two factors; a direction set that does not
    cover the sphere to within 90 degrees is rejected."""
    theta = _directions(p, n_dirs)[1]
    if not theta < math.pi / 2:
        raise ValueError(f"{n_dirs} directions do not cover the {p}-d sphere to within "
                         f"90 degrees (covering angle {theta!r}); use more")
    risk = 2.0 * math.sin(theta / 2.0) ** 2   # 1 - cos(theta), without cancellation
    return risk, risk / math.cos(theta)        # 1 / cos(theta) - 1


def run_verification_suite(
    n_seeds: int,
    grid_dirs: int = 10_000,
    gamma_fraction: float = 0.5,
    cross_checks: bool = True,
) -> SuiteResult:
    """Verify every claim on ``n_seeds`` generated problems.

    Per problem: the collapse-optimality equality must hold with both
    assumptions satisfied; the head-norm argmin equality must hold at
    gamma = gamma_fraction * (best achievable risk); and, when enabled, the
    closed forms must agree with the grid's best head on ``grid_dirs``
    directions for every hypothesis, within what ``_cross_check_slack``
    allows for the grid plus ``ROUNDING_TOL``.  Raises ``ValueError`` for
    fewer than one seed, for a gamma fraction outside (0, 1] and for a grid
    too coarse to cross-check on, including one whose best head cannot
    reach within 1/r a norm the grid's slack can explain; a miss the slack
    cannot explain is a failed cross-check.
    """
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    if not 0.0 < gamma_fraction <= 1.0:   # also rejects NaN
        raise ValueError(f"gamma fraction must lie in (0, 1], got {gamma_fraction!r}")
    result = SuiteResult(n_problems=n_seeds, n_passed=0)
    for seed in range(n_seeds):
        prob = generate_problem(seed)
        issues: list[str] = []
        rep = verify_collapse_optimality(prob)
        if not rep.assumption_overlap:
            issues.append("no collapsing separation optimum")
        if not rep.assumption_support:
            issues.append("support-size assumption violated")
        if rep.equality is not True:
            issues.append(f"collapse-optimality equality failed: {rep.to_json()}")
        gamma = gamma_fraction * min(rep.risks)
        norm_rep = verify_head_norm_argmin(prob, gamma)
        if norm_rep.equality is not True:
            issues.append(f"head-norm argmin equality failed: {norm_rep.to_json()}")
        if cross_checks:
            risk_slack, norm_slack = _cross_check_slack(prob.rep_dim, grid_dirs)
            best_dots = _best_dots(prob, grid_dirs)
            for k, (closed, best_dot) in enumerate(zip(rep.risks, best_dots)):
                grid = min(-best_dot / prob.radius, 0.0)   # best grid head, or the zero head
                if abs(closed - grid) > -closed * risk_slack + ROUNDING_TOL:
                    issues.append(f"risk cross-check off for hypothesis {k}: {closed} vs {grid}")
            for k, closed in norm_rep.norms.items():
                grid = _grid_head_norm(best_dots[k], gamma, prob.radius)
                if grid is None:
                    if closed * (1.0 + norm_slack) + ROUNDING_TOL < 1.0 / prob.radius:
                        issues.append(f"norm cross-check off for hypothesis {k}: {closed} vs "
                                      f"unreachable within 1/r on {grid_dirs} directions")
                        continue
                    raise ValueError(
                        f"{grid_dirs} directions cannot reach risk {gamma!r} within head norm "
                        f"1/r for hypothesis {k} of seed {seed}, though the closed form reaches "
                        f"it at {closed!r}; use more directions or a smaller gamma fraction"
                    )
                if abs(closed - grid) > closed * norm_slack + ROUNDING_TOL:
                    issues.append(f"norm cross-check off for hypothesis {k}: {closed} vs {grid}")
        if issues:
            result.failures.append({"seed": seed, "issues": issues})
        else:
            result.n_passed += 1
    return result
