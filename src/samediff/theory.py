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

Closed forms are cross-checked against independent dense searches
(direction grids for the best head, bisection for the smallest adequate
head norm), so no claim rests on a single derivation.
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
    "min_risk_maps",
    "image_support_size",
    "verify_collapse_optimality",
    "required_head_norm",
    "required_head_norm_bisect",
    "verify_head_norm_argmin",
    "generalization_bound",
    "generate_problem",
    "run_verification_suite",
]

TIE_TOL = 1e-12     # argmin membership tolerance
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


def signed_mean(h: np.ndarray, prob: FiniteProblem) -> np.ndarray:
    """E[Y * rep(X)]: class-signed mean of the representation points."""
    w = prob.pmf[:, 0] - prob.pmf[:, 1]
    return w @ np.asarray(h, dtype=np.float64)


def min_head_risk(h: np.ndarray, prob: FiniteProblem) -> float:
    """Smallest true hinge risk over heads with norm at most 1/r.

    Risk of head w is -<w, E[Y rep(X)]>; minimizing over the norm ball
    gives -||E[Y rep(X)]|| / r exactly.
    """
    return -float(np.linalg.norm(signed_mean(h, prob))) / prob.radius


@functools.lru_cache(maxsize=8)
def _directions(p: int, n: int) -> np.ndarray:
    """Near-uniform unit directions: exact fan in 2-d, spiral in 3-d, seeded
    Gaussian draws otherwise.

    Cached per (p, n) and read-only, since every hypothesis shares them.
    """
    if p == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    elif p == 3:
        i = np.arange(n, dtype=np.float64)
        z = 1.0 - 2.0 * (i + 0.5) / n
        theta = np.pi * (3.0 - np.sqrt(5.0)) * i
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        dirs = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    else:
        g = substream(0, "theory", "directions", p, n).normal(size=(n, p))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    dirs.flags.writeable = False
    return dirs


def min_head_risk_grid(h: np.ndarray, prob: FiniteProblem, n_dirs: int = 10_000) -> float:
    """Dense-search cross-check of ``min_head_risk``.

    Scans heads on the boundary of the norm ball along near-uniform
    directions (plus the zero head) and returns the best risk found.
    """
    e = signed_mean(h, prob)
    dirs = _directions(prob.rep_dim, n_dirs)
    best_dot = float(np.max(dirs @ e))
    return min(-best_dot / prob.radius, 0.0)


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
    return bool(np.linalg.norm(pts[0] - pts[1]) > tol)


def collapsing_maps(prob: FiniteProblem, tol: float = TIE_TOL) -> tuple[int, ...]:
    """Indices of hypotheses collapsing each class to its own point."""
    return tuple(
        k for k, h in enumerate(prob.hypotheses) if is_collapsing(h, prob, tol)
    )


def min_risk_maps(prob: FiniteProblem, tol: float = TIE_TOL) -> tuple[int, ...]:
    """Indices of hypotheses whose best head attains the minimal true risk."""
    vals = np.array([min_head_risk(h, prob) for h in prob.hypotheses])
    return _argmin_set(vals, tol)


def image_support_size(h: np.ndarray, prob: FiniteProblem, tol: float = TIE_TOL) -> int:
    """Number of distinct representation points over positive-probability inputs."""
    h = np.asarray(h, dtype=np.float64)
    rows = h[np.flatnonzero(prob.pmf.sum(axis=1) > 0.0)]
    reps: list[np.ndarray] = []
    for row in rows:
        if not any(np.linalg.norm(row - q) <= tol for q in reps):
            reps.append(row)
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


def verify_collapse_optimality(prob: FiniteProblem, tol: float = TIE_TOL) -> OptimalityReport:
    """Check that the best-risk hypotheses are exactly the collapsing
    separation optima, provided the two stated assumptions hold.

    When either assumption fails the verdict is withheld (None) rather than
    evaluated on unsupported ground.
    """
    d_set = separation_optima(prob, tol)
    s_set = collapsing_maps(prob, tol)
    f_set = min_risk_maps(prob, tol)
    overlap = tuple(sorted(set(d_set) & set(s_set)))
    assumption_overlap = len(overlap) > 0
    assumption_support = all(
        image_support_size(prob.hypotheses[k], prob, tol) > MIN_SUPPORT
        for k in range(len(prob.hypotheses))
        if k not in s_set
    )
    equality = None
    if assumption_overlap and assumption_support:
        equality = set(f_set) == set(overlap)
    risks = tuple(float(min_head_risk(h, prob)) for h in prob.hypotheses)
    objective = tuple(float(pair_objective_value(h, prob)) for h in prob.hypotheses)
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
    norm_e = float(np.linalg.norm(signed_mean(h, prob)))
    if norm_e <= 0.0:
        raise ValueError("risk below model capacity: this hypothesis cannot reach it")
    t = -gamma / norm_e
    if t > 1.0 / prob.radius + TIE_TOL:
        raise ValueError("risk below model capacity: needs head norm beyond 1/r")
    return t


def required_head_norm_bisect(
    h: np.ndarray,
    prob: FiniteProblem,
    gamma: float,
    n_dirs: int = 10_000,
    iters: int = 80,
) -> float:
    """Independent route to the same quantity: bisection over the norm budget
    with a dense direction search for the best head inside each ball."""
    if gamma >= 0:
        raise ValueError("trivial risk: target must be negative")
    e = signed_mean(h, prob)
    dirs = _directions(prob.rep_dim, n_dirs)
    best_dot = max(float(np.max(dirs @ e)), 0.0)
    cap = 1.0 / prob.radius

    def best_risk(budget: float) -> float:
        return -budget * best_dot

    if best_risk(cap) > gamma:
        raise ValueError("risk below model capacity: needs head norm beyond 1/r")
    lo, hi = 0.0, cap
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if best_risk(mid) <= gamma:
            hi = mid
        else:
            lo = mid
    return hi


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
    norms: dict[int, float] = {}
    excluded: list[int] = []
    for k, h in enumerate(prob.hypotheses):
        try:
            norms[k] = required_head_norm(h, prob, gamma)
        except ValueError:
            excluded.append(k)
    target = tuple(sorted(set(separation_optima(prob, tol)) & set(collapsing_maps(prob, tol))))
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
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def _orthogonal_to(rng: np.random.Generator, a: np.ndarray) -> np.ndarray:
    while True:
        v = rng.normal(size=a.shape[0])
        v = v - np.dot(v, a) * a
        n = np.linalg.norm(v)
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
        b = b / np.linalg.norm(b)
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


def run_verification_suite(
    n_seeds: int,
    grid_dirs: int = 10_000,
    cross_check_tol: float = 1e-3,
    gamma_fraction: float = 0.5,
    cross_checks: bool = True,
) -> SuiteResult:
    """Verify every claim on ``n_seeds`` generated problems.

    Per problem: the collapse-optimality equality must hold with both
    assumptions satisfied; the head-norm argmin equality must hold at
    gamma = gamma_fraction * (best achievable risk); and, when enabled, the
    closed forms must agree with the dense-search routes within
    ``cross_check_tol`` for every hypothesis.
    """
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
            for k, h in enumerate(prob.hypotheses):
                closed = min_head_risk(h, prob)
                grid = min_head_risk_grid(h, prob, n_dirs=grid_dirs)
                if abs(closed - grid) > cross_check_tol:
                    issues.append(f"risk cross-check off for hypothesis {k}: {closed} vs {grid}")
            for k in norm_rep.norms:
                closed = norm_rep.norms[k]
                bisected = required_head_norm_bisect(
                    prob.hypotheses[k], prob, gamma, n_dirs=grid_dirs
                )
                if abs(closed - bisected) > cross_check_tol:
                    issues.append(f"norm cross-check off for hypothesis {k}: {closed} vs {bisected}")
        if issues:
            result.failures.append({"seed": seed, "issues": issues})
        else:
            result.n_passed += 1
    return result
