"""Random test length for a demanded confidence - PROTEST feature 3.

"The user wants to know how many random patterns he has to apply in
order to detect all faults.  He specifies the input signal
probabilities and the demanded confidence of the random test, and
PROTEST computes the necessary test length."

With independent patterns, a fault of detection probability ``p``
escapes ``N`` patterns with probability ``(1-p)^N``.  Two notions of
test length are provided:

* per-fault:  smallest N with ``1 - (1-p)^N >= c``;
* whole-test: smallest N with ``prod_f (1 - (1-p_f)^N) >= c`` - the
  demanded confidence that *all* faults are detected.

All escape/detection terms are computed as ``exp(N * log1p(-p))`` and
``-expm1(N * log1p(-p))``: for small ``p`` (below ~1e-16) the naive
``(1.0 - p) ** N`` collapses to ``1.0 ** N`` in floats, pinning the
detection probability to zero and making every length look infinite.

The module also hosts the confidence machinery for *streaming*
sessions: :func:`coverage_lower_bound` turns observed detected-of-total
fault counts into a Wilson-score lower confidence bound on coverage,
the quantity the incremental consumer in
``repro.simulate.faultsim.streaming_coverage`` drives to its target.
"""

from __future__ import annotations

import bisect
import math
import numbers
from typing import List, Mapping, Tuple


_SATURATED = -40.0
"""``-expm1(x)`` is exactly 1.0 for every ``x <= _SATURATED``: ``e^-40``
is below 2^-57, far under half an ulp of 1.0 (2^-54), and libm's
``expm1`` returns -1.0 outright below about -38.8."""


def check_confidence(confidence, name: str = "confidence") -> None:
    """Validate a demanded confidence: a real, non-bool number in (0, 1)."""
    if (
        isinstance(confidence, bool)
        or not isinstance(confidence, numbers.Real)
        or not 0.0 < confidence < 1.0
    ):
        raise ValueError(f"{name} must be in (0,1), got {confidence!r}")


def test_length_for_fault(p: float, confidence: float = 0.999) -> float:
    """Smallest pattern count detecting one fault with the confidence.

    Returns ``math.inf`` for undetectable faults (p = 0) and 1 for
    certain detection (p = 1).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"detection probability must be in [0,1], got {p}")
    check_confidence(confidence)
    if p == 0.0:
        return math.inf
    if p == 1.0:
        return 1.0
    return math.ceil(math.log1p(-confidence) / math.log1p(-p))


def escape_probability(p: float, length: float) -> float:
    """P(fault with detection probability p escapes ``length`` patterns)."""
    if p >= 1.0:
        return 0.0 if length > 0 else 1.0
    return math.exp(length * math.log1p(-p))


def detection_probability(p: float, length: float) -> float:
    """P(fault with detection probability p falls to ``length`` patterns)."""
    if p >= 1.0:
        return 1.0 if length > 0 else 0.0
    return -math.expm1(length * math.log1p(-p))


def expected_coverage(probabilities: Mapping[str, float], length: int) -> float:
    """Expected fault coverage after ``length`` random patterns."""
    if not probabilities:
        return 1.0
    detected = sum(detection_probability(p, length) for p in probabilities.values())
    return detected / len(probabilities)


def confidence_all_detected(probabilities: Mapping[str, float], length: int) -> float:
    """P(every fault is detected within ``length`` patterns)."""
    result = 1.0
    for p in probabilities.values():
        result *= detection_probability(p, length)
        if result == 0.0:
            return 0.0
    return result


def test_length(
    probabilities: Mapping[str, float],
    confidence: float = 0.999,
    per_fault: bool = False,
) -> float:
    """The necessary random test length for the demanded confidence.

    ``per_fault=False`` (default) demands that *all* faults are detected
    with the given confidence; ``per_fault=True`` reproduces the simpler
    per-fault bound, driven by the hardest fault alone.
    """
    check_confidence(confidence)
    finite = [p for p in probabilities.values() if p > 0.0]
    if len(finite) < len(probabilities):
        return math.inf
    if not finite:
        return 0.0
    if per_fault:
        return max(test_length_for_fault(p, confidence) for p in finite)
    # Monotone in N: binary search up to a provably sufficient length -
    # the N at which every fault individually reaches confidence
    # c^(1/F), so the product over all F faults reaches c.  (A doubling
    # search with an absolute guard wrongly reported ``inf`` for very
    # small detection probabilities, whose true lengths exceed any fixed
    # guard long before the float math breaks down.)
    count = len(finite)
    # 1 - c^(1/F), computed without cancellation.
    shortfall = -math.expm1(math.log(confidence) / count)
    logs = [math.log1p(-p) for p in finite if p < 1.0]
    high = max([1] + [math.ceil(math.log(shortfall) / lq) for lq in logs])
    # Only factors with N*log1p(-p) above _SATURATED differ from 1.0;
    # with the logs sorted they are a suffix, and multiplying by 1.0 is
    # exact, so the product (dict order kept, early exit at 0.0 kept)
    # equals confidence_all_detected bit for bit.
    order = sorted(range(len(logs)), key=logs.__getitem__)
    ranked = [logs[i] for i in order]
    low = 1
    while low < high:
        mid = (low + high) // 2
        cut = bisect.bisect_right(ranked, _SATURATED / mid)
        while cut > 0 and mid * ranked[cut - 1] > _SATURATED:
            cut -= 1
        while cut < len(ranked) and mid * ranked[cut] <= _SATURATED:
            cut += 1
        result = 1.0
        for i in sorted(order[cut:]):
            result *= -math.expm1(mid * logs[i])
            if result == 0.0:
                break
        if result >= confidence:
            high = mid
        else:
            low = mid + 1
    return float(low)


def hardest_faults(
    probabilities: Mapping[str, float], count: int = 10
) -> List[Tuple[str, float]]:
    """The faults that dominate the test length, hardest first."""
    ranked = sorted(probabilities.items(), key=lambda item: item[1])
    return ranked[:count]


# --- Confidence bounds on observed coverage (streaming sessions) ------

_ACKLAM_A = (
    -3.969683028665376e+01,
    2.209460984245205e+02,
    -2.759285104469687e+02,
    1.383577518672690e+02,
    -3.066479806614716e+01,
    2.506628277459239e+00,
)
_ACKLAM_B = (
    -5.447609879822406e+01,
    1.615858368580409e+02,
    -1.556989798598866e+02,
    6.680131188771972e+01,
    -1.328068155288572e+01,
)
_ACKLAM_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e+00,
    -2.549732539343734e+00,
    4.374664141464968e+00,
    2.938163982698783e+00,
)
_ACKLAM_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e+00,
    3.754408661907416e+00,
)
_ACKLAM_SPLIT = 0.02425


def _normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Accurate to ~1.15e-9 across (0, 1) - ample for confidence bounds,
    and free of any scipy dependency.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument must be in (0,1), got {q}")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if q < _ACKLAM_SPLIT:
        r = math.sqrt(-2.0 * math.log(q))
        return (
            ((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]
        ) / ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    if q > 1.0 - _ACKLAM_SPLIT:
        r = math.sqrt(-2.0 * math.log(1.0 - q))
        return -(
            ((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]
        ) / ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    r = q - 0.5
    s = r * r
    return (
        (((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5]) * r
    ) / (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0)


def coverage_lower_bound(
    detected: float, total: float, confidence: float = 0.99
) -> float:
    """Wilson-score lower confidence bound on the coverage proportion.

    Treats the fault universe as ``total`` Bernoulli trials of which
    ``detected`` succeeded (fractional weights from structural
    collapsing are accepted), and returns the one-sided lower bound
    holding with the given confidence.  Monotone in ``detected`` for
    fixed ``total``, never exceeds the empirical proportion for
    ``confidence >= 0.5``, and an empty universe is vacuously covered.
    """
    check_confidence(confidence)
    if total < 0 or detected < 0 or detected > total:
        raise ValueError(
            f"need 0 <= detected <= total, got detected={detected} total={total}"
        )
    if total == 0:
        return 1.0
    z = _normal_quantile(confidence)
    proportion = detected / total
    z2 = z * z
    denominator = 1.0 + z2 / total
    centre = (proportion + z2 / (2.0 * total)) / denominator
    half_width = (
        z
        * math.sqrt(
            proportion * (1.0 - proportion) / total
            + z2 / (4.0 * total * total)
        )
        / denominator
    )
    return min(1.0, max(0.0, centre - half_width))
