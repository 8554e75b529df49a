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

Each problem's statistics are computed once: ``verify_collapse_optimality``
evaluates every hypothesis's pair objective, best-head risk and collapse
test a single time, and ``run_verification_suite`` hands that report's
risks and collapsing separation optima on to the head-norm check and the
cross-checks instead of deriving them again; each hypothesis's direction
scan is done once and serves both cross-checks.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import substream

__all__ = [
    "FiniteProblem",
    "OptimalityReport",
    "HeadNormReport",
    "SuiteResult",
    "signed_mean",
    "min_head_risk",
    "min_head_risk_grid",
    "separation_optima",
    "pair_objective_value",
    "is_collapsing",
    "collapsing_maps",
    "image_support_size",
    "verify_collapse_optimality",
    "required_head_norm",
    "verify_head_norm_argmin",
    "generalization_bound",
    "generate_problem",
    "run_verification_suite",
]

TIE_TOL = 1e-12     # argmin membership tolerance
ROUNDING_TOL = 1e-12   # rounding allowance of the dense-search cross-checks
PMF_TOL = 1e-12
ROW_NORM_TOL = 1e-9
MIN_SUPPORT = 4     # non-collapsing hypotheses must map onto more points


@dataclass(frozen=True)
class FiniteProblem:
    """Finite two-class problem with an explicit hypothesis list.

    ``pmf[i, 0]`` is P(X = i, Y = +1) and ``pmf[i, 1]`` is P(X = i, Y = -1).
    Each hypothesis is an (m, p) array of representation points, one row per
    input, every row on the sphere of the given radius.
    """

    pmf: np.ndarray
    hypotheses: tuple[np.ndarray, ...]
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
        hyps = tuple(np.asarray(h, dtype=np.float64) for h in self.hypotheses)
        if not hyps:
            raise ValueError("at least one hypothesis required")
        m = pmf.shape[0]
        p = hyps[0].shape[1]
        for k, h in enumerate(hyps):
            if h.shape != (m, p):
                raise ValueError(f"hypothesis {k} must have shape ({m}, {p})")
            norms = np.linalg.norm(h, axis=1)
            if np.any(np.abs(norms - self.radius) > ROW_NORM_TOL * max(self.radius, 1.0)):
                raise ValueError(f"hypothesis {k} has rows off the radius-{self.radius} sphere")
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "hypotheses", hyps)

    @property
    def m(self) -> int:
        return self.pmf.shape[0]

    @property
    def rep_dim(self) -> int:
        return self.hypotheses[0].shape[1]

    @property
    def alpha(self) -> float:
        return float(self.pmf[:, 0].sum())


# -- best-head risk -------------------------------------------------------


def _length(v: np.ndarray) -> float:
    """Euclidean length of a 1-d vector: what ``np.linalg.norm`` computes
    for it, without that function's dispatch."""
    return math.sqrt(float(v.dot(v)))


def signed_mean(h: np.ndarray, prob: FiniteProblem) -> np.ndarray:
    """E[Y * rep(X)]: class-signed mean of the representation points."""
    w = prob.pmf[:, 0] - prob.pmf[:, 1]
    return w @ np.asarray(h, dtype=np.float64)


def min_head_risk(h: np.ndarray, prob: FiniteProblem) -> float:
    """Smallest true hinge risk over heads with norm at most 1/r.

    Risk of head w is -<w, E[Y rep(X)]>; minimizing over the norm ball
    gives -||E[Y rep(X)]|| / r exactly.
    """
    return -_length(signed_mean(h, prob)) / prob.radius


@functools.lru_cache(maxsize=8)
def _directions(p: int, n: int) -> tuple[np.ndarray, float]:
    """Near-uniform unit directions and their covering angle: exact fan in
    2-d, spiral in 3-d, seeded Gaussian draws otherwise.

    The covering angle is the largest angle from any unit vector to its
    nearest direction: half the spacing for the fan, measured by
    ``_spiral_covering_angle`` for the spiral, unknown (NaN) for the draws.
    Cached per (p, n), the directions read-only, since every hypothesis
    shares them.
    """
    if n < 1:
        raise ValueError(f"need at least one direction, got {n}")
    if p == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        theta = math.pi / n
    elif p == 3:
        i = np.arange(n, dtype=np.float64)
        z = 1.0 - 2.0 * (i + 0.5) / n
        lon = np.pi * (3.0 - np.sqrt(5.0)) * i
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        dirs = np.stack([rho * np.cos(lon), rho * np.sin(lon), z], axis=1)
        theta = _spiral_covering_angle(dirs)
    else:
        g = substream(0, "theory", "directions", p, n).normal(size=(n, p))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
        theta = math.nan
    dirs.flags.writeable = False
    return dirs, theta


def _spiral_covering_angle(dirs: np.ndarray) -> float:
    """Covering angle of the 3-d spiral.

    The points of the sphere farthest from the directions are circumcentres
    of their spherical Delaunay triangles: triangles whose circumcircle
    holds no direction.  ``_empty_triangles`` finds them among each
    direction's k nearest neighbours; the largest circumradius is trusted
    once they number Euler's 2n - 4, and otherwise k doubles, up to every
    direction.
    """
    n = len(dirs)
    if n < 4:
        return math.pi   # no triangulation: claim no coverage
    k = 8
    while True:
        k = min(k, n - 1)
        found = _empty_triangles(dirs, k)
        if found is not None and found[1] >= 2 * n - 4:
            return found[0]
        if k == n - 1:
            raise ArithmeticError(f"no Delaunay triangulation found for {n} spiral directions")
        k *= 2


def _empty_triangles(dirs: np.ndarray, k: int) -> tuple[float, int] | None:
    """(largest circumradius, count) of the spiral's empty triangles whose
    lowest-index vertex has the other two among its k nearest neighbours,
    or None when the neighbour search cannot vouch for its k.  Each such
    triangle is counted once, from that vertex.

    The spiral's z falls by 2/n per index and |dz| never exceeds the angle,
    so the directions within ``reach`` of direction i lie within
    reach * n / 2 indices of i: one matmul per block of 64 rows scores
    them, which keeps the scratch memory small.  A circumcircle of angular
    radius rho around i lies within 2 rho of i, so while 2 rho stays below
    the k-th neighbour's angle, testing i's neighbours decides emptiness
    exactly.
    """
    n = len(dirs)
    whole = k == n - 1
    reach = min(2.0, 4.0 * math.sqrt(k / n))
    w = min(n, math.ceil(reach * n / 2.0))
    jj, ll = np.triu_indices(k, 1)
    largest, count = 0.0, 0
    for lo in range(0, n, 64):
        hi = min(lo + 64, n)
        first = max(lo - w, 0)
        cos = dirs[lo:hi] @ dirs[first:hi + w].T
        cos[np.arange(hi - lo), np.arange(lo - first, hi - first)] = -2.0   # not itself
        nbr = np.argpartition(cos, -k, axis=1)[:, -k:]
        angle_k = np.arccos(np.clip(np.take_along_axis(cos, nbr, axis=1).min(axis=1), -1.0, 1.0))
        if not whole and angle_k.max() >= reach:
            return None
        nbr += first
        p = dirs[lo:hi]
        c = np.cross(dirs[nbr[:, jj]] - p[:, None], dirs[nbr[:, ll]] - p[:, None])
        c *= np.sign(np.einsum("ncx,nx->nc", c, p))[:, :, None]   # p's side
        norm = np.sqrt(np.einsum("ncx,ncx->nc", c, c))
        c /= np.where(norm > 0.0, norm, 1.0)[:, :, None]
        cos_rho = np.einsum("ncx,nx->nc", c, p)
        rho = np.arccos(np.clip(cos_rho, -1.0, 1.0))
        nearest = np.einsum("ncx,njx->ncj", c, dirs[nbr]).max(axis=2)
        empty = ((norm > 0.0) & (nearest <= cos_rho + 1e-12)
                 & (whole | (2.0 * rho < angle_k[:, None])))
        i = np.arange(lo, hi)[:, None]
        mine = empty & (nbr[:, jj] > i) & (nbr[:, ll] > i)
        largest = max(largest, float(rho[mine].max(initial=0.0)))
        count += int(np.count_nonzero(mine))
    return largest, count


def _best_dot(h: np.ndarray, prob: FiniteProblem, n_dirs: int) -> float:
    """Largest <d, E[Y rep(X)]> over the ``n_dirs`` grid directions d: the
    grid's best unit head scores risk -best_dot."""
    dirs, _ = _directions(prob.rep_dim, n_dirs)
    return float(np.max(dirs @ signed_mean(h, prob)))


def min_head_risk_grid(h: np.ndarray, prob: FiniteProblem, n_dirs: int = 10_000) -> float:
    """Dense-search cross-check of ``min_head_risk``.

    Scans heads on the boundary of the norm ball along near-uniform
    directions (plus the zero head) and returns the best risk found.
    """
    return min(-_best_dot(h, prob, n_dirs) / prob.radius, 0.0)


# -- the optimal sets -----------------------------------------------------


def _argmin_set(values: np.ndarray, tol: float = TIE_TOL) -> tuple[int, ...]:
    vmin = float(np.min(values))
    return tuple(int(i) for i in np.flatnonzero(values <= vmin + tol))


def pair_objective_value(h: np.ndarray, prob: FiniteProblem) -> float:
    """Expected negated squared representation distance across classes.

    The expectation conditions on the two independent draws carrying
    different labels.
    """
    h = np.asarray(h, dtype=np.float64)
    alpha = prob.alpha
    diff = h[:, None, :] - h[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    cross = np.outer(prob.pmf[:, 0], prob.pmf[:, 1])
    return float(np.sum(cross * (-d2)) / (alpha * (1.0 - alpha)))


def separation_optima(prob: FiniteProblem, tol: float = TIE_TOL) -> tuple[int, ...]:
    """Indices of hypotheses minimizing the true pair objective."""
    vals = np.array([pair_objective_value(h, prob) for h in prob.hypotheses])
    return _argmin_set(vals, tol)


def _class_support(prob: FiniteProblem, col: int) -> np.ndarray:
    return np.flatnonzero(prob.pmf[:, col] > 0.0)


def is_collapsing(h: np.ndarray, prob: FiniteProblem, tol: float = TIE_TOL) -> bool:
    """True when each class maps to a single point and the points differ."""
    h = np.asarray(h, dtype=np.float64)
    pts = []
    for col in (0, 1):
        rows = h[_class_support(prob, col)]
        if np.max(np.linalg.norm(rows - rows[0], axis=1), initial=0.0) > tol:
            return False
        pts.append(rows[0])
    return _length(pts[0] - pts[1]) > tol


def collapsing_maps(prob: FiniteProblem, tol: float = TIE_TOL) -> tuple[int, ...]:
    """Indices of hypotheses collapsing each class to its own point."""
    return tuple(
        k for k, h in enumerate(prob.hypotheses) if is_collapsing(h, prob, tol)
    )


def image_support_size(h: np.ndarray, prob: FiniteProblem, tol: float = TIE_TOL) -> int:
    """Number of distinct representation points over positive-probability inputs."""
    h = np.asarray(h, dtype=np.float64)
    rows = h[np.flatnonzero(prob.pmf.sum(axis=1) > 0.0)]
    near = (np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2) <= tol).tolist()
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
        return _overlap(self.separation_set, self.collapsing_set)

    def to_json(self) -> str:
        return json.dumps(
            {
                "separation_set": list(self.separation_set),
                "collapsing_set": list(self.collapsing_set),
                "min_risk_set": list(self.min_risk_set),
                "risks": list(self.risks),
                "pair_objective": list(self.pair_objective),
                "assumption_overlap": self.assumption_overlap,
                "assumption_support": self.assumption_support,
                "equality": self.equality,
            }
        )


def _overlap(d_set: tuple[int, ...], s_set: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(d_set) & set(s_set)))


def verify_collapse_optimality(prob: FiniteProblem, tol: float = TIE_TOL) -> OptimalityReport:
    """Check that the best-risk hypotheses are exactly the collapsing
    separation optima, provided the two stated assumptions hold.

    When either assumption fails the verdict is withheld (None) rather than
    evaluated on unsupported ground.  Each hypothesis's pair objective,
    best-head risk and collapse test are computed once.
    """
    objective = tuple(pair_objective_value(h, prob) for h in prob.hypotheses)
    risks = tuple(min_head_risk(h, prob) for h in prob.hypotheses)
    d_set = _argmin_set(np.array(objective), tol)
    s_set = collapsing_maps(prob, tol)
    f_set = _argmin_set(np.array(risks), tol)
    overlap = _overlap(d_set, s_set)
    assumption_overlap = len(overlap) > 0
    assumption_support = all(
        image_support_size(prob.hypotheses[k], prob, tol) > MIN_SUPPORT
        for k in range(len(prob.hypotheses))
        if k not in s_set
    )
    equality = None
    if assumption_overlap and assumption_support:
        equality = set(f_set) == set(overlap)
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


# -- smallest adequate head norm ------------------------------------------


def required_head_norm(h: np.ndarray, prob: FiniteProblem, gamma: float) -> float:
    """Smallest head-norm budget whose ball contains a head with true risk gamma.

    Closed form -gamma / ||E[Y rep(X)]|| for attainable negative gamma.
    Raises for gamma >= 0 (trivial risk: the zero head already achieves it)
    and for targets below what the norm cap 1/r allows.
    """
    if gamma >= 0:
        raise ValueError("trivial risk: target must be negative")
    norm_e = _length(signed_mean(h, prob))
    if norm_e <= 0.0:
        raise ValueError("risk below model capacity: this hypothesis cannot reach it")
    t = -gamma / norm_e
    if t > 1.0 / prob.radius + TIE_TOL:
        raise ValueError("risk below model capacity: needs head norm beyond 1/r")
    return t


def _grid_head_norm(best_dot: float, gamma: float, radius: float) -> float | None:
    """Dense-search cross-check of ``required_head_norm``, given the grid's
    ``_best_dot``: a head of norm t along the best direction scores
    -t * best_dot, so the smallest t reaching gamma < 0 is -gamma / best_dot.
    None when even t = 1/r falls short."""
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
        return json.dumps(
            {
                "gamma": self.gamma,
                "norms": {str(k): v for k, v in self.norms.items()},
                "excluded": list(self.excluded),
                "argmin_set": list(self.argmin_set),
                "target_set": list(self.target_set),
                "assumption_overlap": self.assumption_overlap,
                "equality": self.equality,
            }
        )


def verify_head_norm_argmin(
    prob: FiniteProblem, gamma: float, tol: float = TIE_TOL
) -> HeadNormReport:
    """Check that the hypotheses needing the least head norm to reach gamma
    are exactly the collapsing separation optima.

    Hypotheses for which gamma is unattainable are excluded from the argmin
    and reported; the verdict is withheld when no hypothesis is both
    collapsing and separation-optimal.
    """
    target = _overlap(separation_optima(prob, tol), collapsing_maps(prob, tol))
    return _head_norm_report(prob, gamma, target, tol)


def _head_norm_report(
    prob: FiniteProblem, gamma: float, target: tuple[int, ...], tol: float = TIE_TOL
) -> HeadNormReport:
    """``verify_head_norm_argmin`` given its target set, the collapsing
    separation optima, already found."""
    norms: dict[int, float] = {}
    excluded: list[int] = []
    for k, h in enumerate(prob.hypotheses):
        try:
            norms[k] = required_head_norm(h, prob, gamma)
        except ValueError:
            excluded.append(k)
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


# -- deviation bound ------------------------------------------------------


def generalization_bound(t: float, r: float, n2: int, delta: float) -> float:
    """High-probability deviation bound for the head stage.

    2 t r / sqrt(n2) + 5 t r sqrt(2 ln(8/delta) / n2), for a labeled sample
    of size n2 at confidence 1 - delta.
    """
    if not isinstance(n2, (int, np.integer)) or n2 < 1:
        raise ValueError("n2 must be a positive integer")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if t < 0 or r <= 0:
        raise ValueError("t must be nonnegative and r positive")
    root_n = math.sqrt(n2)
    return 2.0 * t * r / root_n + 5.0 * t * r * math.sqrt(2.0 * math.log(8.0 / delta) / n2)


# -- randomized problem generator -----------------------------------------


def _unit(rng: np.random.Generator, p: int) -> np.ndarray:
    while True:
        v = rng.normal(size=p)
        n = _length(v)
        if n > 1e-6:
            return v / n


def _orthogonal_to(rng: np.random.Generator, a: np.ndarray) -> np.ndarray:
    while True:
        v = rng.normal(size=a.shape[0])
        v = v - np.dot(v, a) * a
        n = _length(v)
        if n > 1e-6:
            return v / n


def _two_point_map(m_plus: int, m: int, pt_plus: np.ndarray, pt_minus: np.ndarray) -> np.ndarray:
    h = np.empty((m, pt_plus.shape[0]))
    h[:m_plus] = pt_plus
    h[m_plus:] = pt_minus
    return h


def generate_problem(seed: int, include_constant_maps: bool = False) -> FiniteProblem:
    """Random finite problem whose hypothesis list exercises every regime.

    The list always contains at least one exactly antipodal two-point map
    (so a collapsing separation optimum exists), some non-antipodal
    two-point maps, and input-splitting maps whose image has more than 4
    support points (so the support-size assumption holds for every
    non-collapsing hypothesis).

    ``include_constant_maps=True`` appends a constant map.  Constant maps
    are not collapsing and have a one-point image, so they deliberately
    violate the support-size assumption; the default generator therefore
    leaves them out and they exist only to exercise the withheld-verdict
    path.
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

    hyps: list[np.ndarray] = []
    axis = _unit(rng, p)
    hyps.append(_two_point_map(m_plus, m, axis * r, -axis * r))
    if rng.random() < 0.5:
        axis2 = _unit(rng, p)
        hyps.append(_two_point_map(m_plus, m, axis2 * r, -axis2 * r))
    for _ in range(int(rng.integers(1, 3))):
        a = _unit(rng, p)
        theta = rng.uniform(np.pi / 6.0, 5.0 * np.pi / 6.0)
        b = np.cos(theta) * a + np.sin(theta) * _orthogonal_to(rng, a)
        b = b / _length(b)
        hyps.append(_two_point_map(m_plus, m, a * r, b * r))
    for _ in range(int(rng.integers(1, 3))):
        while True:
            pts = np.stack([_unit(rng, p) * r for _ in range(m)])
            diff = pts[:, None, :] - pts[None, :, :]
            d = np.linalg.norm(diff, axis=2) + np.eye(m)
            if d.min() > 1e-6:
                break
        hyps.append(pts)
    if include_constant_maps:
        hyps.append(np.tile(_unit(rng, p) * r, (m, 1)))

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
    cover the sphere to within 90 degrees is rejected.
    """
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
    allows for the grid plus ``ROUNDING_TOL``.  One direction scan per
    hypothesis gives both the grid risk and the grid norm.

    Raises ``ValueError`` for fewer than one seed, for a gamma fraction
    outside (0, 1] and for a grid too coarse to cross-check on, including
    one whose best head cannot reach within 1/r a norm the grid's slack
    can explain; a miss the slack cannot explain is a failed cross-check.
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
        norm_rep = _head_norm_report(prob, gamma, rep.overlap)
        if norm_rep.equality is not True:
            issues.append(f"head-norm argmin equality failed: {norm_rep.to_json()}")
        if cross_checks:
            risk_slack, norm_slack = _cross_check_slack(prob.rep_dim, grid_dirs)
            norm_issues: list[str] = []   # reported after every risk issue
            for k, h in enumerate(prob.hypotheses):
                best_dot = _best_dot(h, prob, grid_dirs)
                closed = rep.risks[k]
                grid = min(-best_dot / prob.radius, 0.0)
                if abs(closed - grid) > -closed * risk_slack + ROUNDING_TOL:
                    issues.append(f"risk cross-check off for hypothesis {k}: {closed} vs {grid}")
                if k not in norm_rep.norms:
                    continue
                closed = norm_rep.norms[k]
                grid = _grid_head_norm(best_dot, gamma, prob.radius)
                if grid is None:
                    if closed * (1.0 + norm_slack) + ROUNDING_TOL < 1.0 / prob.radius:
                        norm_issues.append(f"norm cross-check off for hypothesis {k}: {closed} vs "
                                           f"unreachable within 1/r on {grid_dirs} directions")
                        continue
                    raise ValueError(
                        f"{grid_dirs} directions cannot reach risk {gamma!r} within head norm "
                        f"1/r for hypothesis {k} of seed {seed}, though the closed form reaches "
                        f"it at {closed!r}; use more directions or a smaller gamma fraction"
                    )
                if abs(closed - grid) > closed * norm_slack + ROUNDING_TOL:
                    norm_issues.append(
                        f"norm cross-check off for hypothesis {k}: {closed} vs {grid}")
            issues += norm_issues
        if issues:
            result.failures.append({"seed": seed, "issues": issues})
        else:
            result.n_passed += 1
    return result
