"""Reference whole-test length: the oracle ``protest.test_length`` is
held to.

This is the bisection ``test_length`` ran before it cached and sorted
the per-fault logs: every step calls ``confidence_all_detected``, which
recomputes ``log1p(-p)`` for every fault and multiplies every
detection factor, the ones that are exactly 1.0 included.

A plain module, not ``conftest.py``, like ``words_reference``.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.protest.testlength import (
    check_confidence,
    confidence_all_detected,
    test_length_for_fault,
)


def reference_test_length(
    probabilities: Mapping[str, float],
    confidence: float = 0.999,
    per_fault: bool = False,
) -> float:
    check_confidence(confidence)
    finite = [p for p in probabilities.values() if p > 0.0]
    if len(finite) < len(probabilities):
        return math.inf
    if not finite:
        return 0.0
    if per_fault:
        return max(test_length_for_fault(p, confidence) for p in finite)
    count = len(finite)
    shortfall = -math.expm1(math.log(confidence) / count)
    high = 1
    for p in finite:
        if p >= 1.0:
            continue
        high = max(high, math.ceil(math.log(shortfall) / math.log1p(-p)))
    low = 1
    while low < high:
        mid = (low + high) // 2
        if confidence_all_detected(probabilities, mid) >= confidence:
            high = mid
        else:
            low = mid + 1
    return float(low)
