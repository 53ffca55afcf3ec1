"""Classical smooth min/max relative entropies and the consistency check.

Everything here lives on probability distributions: projecting a state onto
the energy eigenbasis leaves only populations, so the one-shot analysis of the
split rho -> rho_1 -> thermal -> eta runs on the diagonal spectra. Smoothing
uses a total-variation ball (TV = half the L1 distance); min-entropies are
optimal deterministic hypothesis tests, max-entropies the exact threshold
(water-reduction) optimum. Both regularise to the relative entropy in the
i.i.d. limit, which is what :func:`consistency_work` exercises.

All returned entropy values are in bits; the conversion back to nats happens
through the module constant :data:`LN2` so an acceptance mutation test can
corrupt it in one place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (AlphabetTooLargeError, NonFiniteError, ParameterRangeError,
                     StateValidationError, SupportError)
from .linalg import is_real, log_partition, require_count, require_same_dim, thermal
from .protocol import ProtocolPlan
from .states import average_energy

LN2 = math.log(2.0)

# subset enumeration is exact but exponential; beyond this use the i.i.d. path
_MAX_ENUM_ALPHABET = 16

# cap on the number of type classes enumerated by iid_rate, and on the n + 1
# entries of its log-factorial table (the larger of the two when m = 1)
_MAX_TYPE_CLASSES = 200_000


@dataclass(frozen=True)
class Distribution:
    """Probability distribution: nonnegative entries summing to 1 (to 1e-12)."""

    probs: np.ndarray

    def __post_init__(self):
        p = _floats(self.probs)
        if p.ndim != 1 or p.size == 0:
            raise StateValidationError("Distribution: needs a nonempty 1-d array")
        if not np.isfinite(p).all():
            raise NonFiniteError("Distribution: probabilities include NaN or infinity")
        if p.min() < 0.0:
            raise StateValidationError(
                f"Distribution: negative probability {float(p.min())!r}"
            )
        if abs(p.sum() - 1.0) > 1e-12:
            raise StateValidationError(
                f"Distribution: probabilities sum to {float(p.sum())!r}, not 1"
            )
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def normalized(cls, probs: Sequence[float]) -> "Distribution":
        """Clip tiny negatives and renormalise before validating."""
        p = _floats(probs)
        if not np.isfinite(p).all():
            raise NonFiniteError("Distribution: probabilities include NaN or infinity")
        p = np.maximum(p, 0.0)
        with np.errstate(over="ignore"):
            total = p.sum()
        if not math.isfinite(total):  # finite weights whose sum overflows
            p = p / p.max()
            total = p.sum()
        if p.size and total == 0.0:
            raise StateValidationError("Distribution: probabilities sum to 0, nothing to normalise")
        return cls(p / total)

    def __len__(self):
        return self.probs.size


def _floats(probs) -> np.ndarray:
    """``probs`` as a float array; ``StateValidationError`` for an entry that is not one."""
    try:
        return np.asarray(probs, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise StateValidationError("Distribution: probabilities must be real numbers") from None


class RatePair(NamedTuple):
    rate_min: float
    rate_max: float


def _check_pair(p: Distribution, q: Distribution):
    require_same_dim("distributions", p=len(p), q=len(q))
    if q.probs.min() <= 0.0:
        raise SupportError("q must have full support (it plays the thermal state)")


def _check_eps(eps: float):
    if not (is_real(eps) and 0.0 <= eps < 1.0):
        raise ParameterRangeError(f"eps must lie in [0, 1), got {eps!r}")


def kl_bits(p: Distribution, q: Distribution) -> float:
    """Relative entropy D(p||q) in bits, with 0 log 0 = 0."""
    _check_pair(p, q)
    pp = p.probs
    mask = pp > 0.0
    return float((pp[mask] * np.log(pp[mask] / q.probs[mask])).sum()) / LN2


def d_min_eps(p: Distribution, q: Distribution, eps: float) -> float:
    """Smooth min-relative entropy, hypothesis-testing form, in bits.

    -log2 min{ q(A) : A subset of outcomes, p(A) >= 1 - eps }, minimised
    exactly over all outcome subsets (the ratio-greedy prefix is not always
    optimal, so the 2^d subsets are enumerated; the alphabet is capped at
    16). eps = 0 reduces to -log2 q(supp p).
    """
    _check_pair(p, q)
    _check_eps(eps)
    d = len(p)
    if d > _MAX_ENUM_ALPHABET:
        raise AlphabetTooLargeError(
            f"d_min_eps enumerates subsets exactly; alphabet {d} exceeds "
            f"{_MAX_ENUM_ALPHABET}"
        )
    masks = (np.arange(1, 1 << d)[:, None] >> np.arange(d)[None, :]) & 1
    pa = masks @ p.probs
    qa = masks @ q.probs
    feasible = pa >= 1.0 - eps - 1e-12
    if not feasible.any():
        return math.inf
    return -math.log(float(qa[feasible].min())) / LN2


def d_max_eps(p: Distribution, q: Distribution, eps: float) -> float:
    """Smooth max-relative entropy over a total-variation ball, in bits.

    min over p' with TV(p, p') <= eps of max_k log2(p'_k / q_k). The optimum
    caps every ratio at a threshold t*, shaving mass off outcomes above the
    cap and parking it on outcomes below; t* solves
    sum_k (p_k - t q_k)_+ = eps, found exactly on the piecewise-linear
    segments. eps = 0 gives max_k log2(p_k / q_k).
    """
    _check_pair(p, q)
    _check_eps(eps)
    with np.errstate(divide="ignore"):  # log 0 = -inf for outcomes outside supp p
        log_p = np.log(p.probs)
    return _log_cap_threshold(log_p, np.log(q.probs), eps) / LN2


def _log_cap_threshold(log_p: np.ndarray, log_q: np.ndarray, eps: float) -> float:
    """log t* of the smallest feasible ratio cap t* >= 1 for mass budget eps.

    With s = log t and r_k = log p_k - log q_k, t* solves
    sum_k p_k (1 - e^(s - r_k))_+ = eps. Working in s keeps the ratios and
    t* finite when class masses fall below the smallest double. The shaved
    mass is linear in e^s between consecutive ratios, so the root is exact on
    the first segment whose lower end still shaves more than eps.
    """
    r = log_p - log_q
    order = np.argsort(-r)
    rs = r[order]
    cp = np.cumsum(np.exp(log_p[order]))
    log_cq = np.logaddexp.accumulate(log_q[order])
    # shaved mass at the lower end of each segment, s = max(next ratio, 0),
    # with every class up to this one capped
    lower = np.append(np.maximum(rs[1:], 0.0), 0.0)
    shaved = cp - np.exp(lower + log_cq)
    above = int(np.count_nonzero(rs > 0.0))
    if above == 0 or eps >= shaved[above - 1] - 1e-15:
        return 0.0  # the total-variation excess fits in eps: no cap needed
    j = int(np.argmax(shaved > eps))
    s = math.log(cp[j] - eps) - log_cq[j]
    return float(min(max(s, lower[j]), rs[j]))


def _type_classes(n: int, m: int) -> np.ndarray:
    """Every count vector of m nonnegative integers summing to n, one per row.

    Built one part at a time: a partial row with r copies left splits into
    r + 1 rows taking 0..r of them, in that order, and the last part takes
    what is left. Rows come in lexicographic order of the counts.
    """
    left = np.array([n])
    columns = []
    for _ in range(m - 1):
        width = left + 1
        parent = np.repeat(np.arange(left.size), width)
        take = np.arange(parent.size) - np.repeat(np.cumsum(width) - width, width)
        columns = [c[parent] for c in columns] + [take]
        left = left[parent] - take
    return np.column_stack(columns + [left])


@functools.lru_cache(maxsize=1)
def _type_table(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The type classes of n copies over m outcomes as read-only float counts,
    one row per class, and the log multinomial weight of each class.

    One entry is kept: both :func:`iid_rate` calls of one
    :func:`consistency_work` share (n, m), and a larger memo would hold up to
    :data:`_MAX_TYPE_CLASSES` rows per entry.
    """
    counts = _type_classes(n, m)
    log_factorial = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_mult = log_factorial[n] - log_factorial[counts].sum(axis=1)
    ks = counts.astype(float)
    ks.setflags(write=False)
    log_mult.setflags(write=False)
    return ks, log_mult


def iid_rate(p: Distribution, q: Distribution, eps: float, n_copies: int) -> RatePair:
    """Per-copy smooth entropies of p^(x)n against q^(x)n, in bits.

    Works over type classes with log-domain multinomial weights rather than
    the d^n outcomes, so binary alphabets reach n = 64 comfortably. The
    min-entropy test fills classes in likelihood-ratio order with a fractional
    boundary class (one string is far below resolution at these n); the
    max-entropy cap acts on whole classes, which is optimal by symmetry. Both
    rates approach D(p||q) as n grows.
    """
    _check_pair(p, q)
    _check_eps(eps)
    n = require_count("n_copies", n_copies, 1)
    if p.probs.min() <= 0.0:
        raise SupportError("iid_rate requires p with full support (clamp the state first)")
    m = len(p)
    n_classes = math.comb(n + m - 1, m - 1)
    if max(n_classes, n + 1) > _MAX_TYPE_CLASSES:
        raise AlphabetTooLargeError(
            f"{n_classes} type classes and {n + 1} log-factorials for alphabet {m} "
            f"at n = {n} (cap {_MAX_TYPE_CLASSES})"
        )
    ks, log_mult = _type_table(n, m)
    log_p = ks @ np.log(p.probs)
    log_q = ks @ np.log(q.probs)
    log_cp = log_mult + log_p
    log_cq = log_mult + log_q

    order = np.argsort(-(log_p - log_q))
    cls_p = np.exp(log_cp[order])
    log_cls_q = log_cq[order]

    # min-entropy: likelihood-ratio prefix reaching p-mass 1 - eps
    target = 1.0 - eps
    cum = np.cumsum(cls_p)
    boundary = int(np.searchsorted(cum, target - 1e-15))
    terms = log_cls_q[:boundary]
    if boundary < len(cls_p):
        before = cum[boundary - 1] if boundary > 0 else 0.0
        needed = target - before
        if needed > 0.0 and cls_p[boundary] > 0.0:
            frac = min(needed / cls_p[boundary], 1.0)
            terms = np.append(terms, log_cls_q[boundary] + math.log(frac))
    log_qa = log_partition(terms, -1.0) if terms.size else -math.inf
    rate_min = (-log_qa / LN2) / n

    # max-entropy: ratio cap over class masses
    rate_max = (_log_cap_threshold(log_cp, log_cq, eps) / LN2) / n
    return RatePair(rate_min=rate_min, rate_max=rate_max)


def smoothing_failure_probability(eps: float) -> float:
    """Composed failure probability of the two smoothed steps, 2 eps - eps^2."""
    _check_eps(eps)
    return 2.0 * eps - eps * eps


def consistency_work(plan: ProtocolPlan, eps: float, n_copies: int) -> float:
    """Average work of the rotate / extract / form split at finite n, eps.

    The unitary rotation contributes its average work tr[(rho - rho_1) H];
    the two diagonal legs through the thermal state contribute
    (ln 2 / beta) * [Dmin_eps(spec rho_1 || thermal) - Dmax_eps(spec eta ||
    thermal)] per copy, evaluated on n_copies via :func:`iid_rate`. ``plan``
    is the :func:`~coherework.protocol.build_plan` plan of (rho, H, T) and the
    purity clamp, which derives every array read here from those inputs and
    does not depend on n, so a sweep over n builds one plan. As n grows (and
    eps shrinks) this approaches the optimal projection work.
    """
    beta = plan.temperature.beta
    gibbs = Distribution.normalized(thermal(plan.e0, beta))
    populations = Distribution.normalized(plan.populations)
    target = Distribution.normalized(plan.target_populations)

    w_a = average_energy(plan.rho0, plan.h0) - float(plan.populations @ plan.e0)
    rate_min = iid_rate(populations, gibbs, eps, n_copies).rate_min
    rate_max = iid_rate(target, gibbs, eps, n_copies).rate_max
    return w_a + (LN2 / beta) * (rate_min - rate_max)
