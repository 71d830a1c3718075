"""Linear feedback shift registers - the random pattern source.

"Instead of leakage measurement we integrate self test features into
our design like BILBOs [9,10] and non-linear feedback shift registers
[11], which can create and evaluate test patterns by maximum speed of
operation" (Section 3).

The LFSR here is a Fibonacci-style register with taps from a table of
primitive polynomials, so every degree-n register runs through its full
2^n - 1 period.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

PRIMITIVE_TAPS: Dict[int, Tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 18, 17, 14),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
    25: (25, 22),
    26: (26, 25, 24, 20),
    27: (27, 26, 25, 22),
    28: (28, 25),
    29: (29, 27),
    30: (30, 29, 28, 7),
    31: (31, 28),
    32: (32, 31, 30, 10),
}
"""Tap positions (1-based, bit ``t`` XORed into the feedback) of a
primitive polynomial per degree - the standard published table."""


def _transition_matrix(degree: int, taps: Sequence[int]) -> Tuple[int, ...]:
    """The GF(2) one-step transition matrix as per-row bit masks.

    Row ``i`` holds the mask of old state bits whose XOR is new bit
    ``i``: row 0 is the tap mask (the feedback), row ``j`` is the shift
    ``1 << (j - 1)``.
    """
    rows = [0] * degree
    for tap in taps:
        rows[0] |= 1 << (tap - 1)
    for j in range(1, degree):
        rows[j] = 1 << (j - 1)
    return tuple(rows)


def _matrix_multiply(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """GF(2) matrix product: (AB)[i] = XOR of B[j] over set bits j of A[i]."""
    rows = []
    for row in a:
        acc = 0
        j = 0
        while row:
            if row & 1:
                acc ^= b[j]
            row >>= 1
            j += 1
        rows.append(acc)
    return tuple(rows)


def _matrix_power(matrix: Sequence[int], exponent: int) -> Tuple[int, ...]:
    """``matrix ** exponent`` over GF(2) by repeated squaring."""
    degree = len(matrix)
    result = tuple(1 << i for i in range(degree))  # identity
    base = tuple(matrix)
    while exponent:
        if exponent & 1:
            result = _matrix_multiply(result, base)
        base = _matrix_multiply(base, base)
        exponent >>= 1
    return result


def _matrix_apply(matrix: Sequence[int], state: int) -> int:
    """Matrix-vector product: bit i = parity(row_i & state)."""
    out = 0
    for i, row in enumerate(matrix):
        out |= ((row & state).bit_count() & 1) << i
    return out


class Lfsr:
    """A maximal-length Fibonacci LFSR."""

    def __init__(self, degree: int, seed: int = 1, taps: Optional[Sequence[int]] = None):
        if degree < 2:
            raise ValueError("LFSR degree must be at least 2")
        if taps is None:
            try:
                taps = PRIMITIVE_TAPS[degree]
            except KeyError:
                raise ValueError(
                    f"no primitive polynomial tabulated for degree {degree}"
                ) from None
        self.degree = degree
        self.taps = tuple(taps)
        if any(not 1 <= t <= degree for t in self.taps):
            raise ValueError(f"tap positions must lie in 1..{degree}")
        if seed == 0 or seed >= (1 << degree):
            raise ValueError(f"seed must be a nonzero {degree}-bit value")
        self.state = seed
        self._seed = seed

    def reset(self) -> None:
        self.state = self._seed

    def step(self) -> int:
        """Advance one clock; returns the new serial output bit (LSB)."""
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (tap - 1)) & 1
        self.state = ((self.state << 1) | feedback) & ((1 << self.degree) - 1)
        return self.state & 1

    def bits(self) -> List[int]:
        """Current parallel register contents (bit 0 first)."""
        return [(self.state >> position) & 1 for position in range(self.degree)]

    def pattern(self, width: int) -> List[int]:
        """One ``width``-bit pattern from the low register bits."""
        if width > self.degree:
            raise ValueError(
                f"cannot draw {width} bits from a degree-{self.degree} LFSR"
            )
        return self.bits()[:width]

    def patterns(self, width: int, count: int) -> Iterator[List[int]]:
        """``count`` patterns, advancing one clock between patterns."""
        for _ in range(count):
            self.step()
            yield self.pattern(width)

    def jump(self, steps: int) -> None:
        """Advance ``steps`` clocks in O(degree^2 log steps) time."""
        if steps < 0:
            raise ValueError("cannot jump a negative number of steps")
        if steps == 0:
            return
        matrix = _matrix_power(_transition_matrix(self.degree, self.taps), steps)
        self.state = _matrix_apply(matrix, self.state)

    def rows(self, count: int) -> List[int]:
        """The next ``count`` patterns as one ``count``-bit int per
        register bit.

        Bit ``p`` of row ``i`` is register bit ``i`` of pattern ``p`` -
        the same step-then-read phase as :meth:`patterns`, and the
        column form of a ``PatternSet``.  The register advances
        ``count`` clocks, exactly as the serial path would.
        """
        # One serial stream y per register: bit i after step t is
        # y[t - i], and y obeys y[t] = XOR over taps of y[t - tap].  Over
        # GF(2) P(x)^m = P(x^m) for m a power of two, so y also obeys
        # y[t] = XOR over taps of y[t - tap*m].  Each shift-and-XOR round
        # takes the largest m with m*degree <= length (so every bit it
        # reads exists) and appends min(taps)*m bits: O(log count)
        # big-int rounds.  The stream starts as the bit-reversed
        # register, row i is the stream shifted by degree - i, and the
        # final state is the stream's top degree bits reversed.
        degree = self.degree
        stream = int(format(self.state, f"0{degree}b")[::-1], 2)
        length, step = degree, min(self.taps)
        while length < count + degree:
            m = 1 << ((length // degree).bit_length() - 1)
            chunk, acc = step * m, 0
            for tap in self.taps:
                acc ^= stream >> (length - tap * m)
            stream |= (acc & ((1 << chunk) - 1)) << length
            length += chunk
        top = (stream >> count) & ((1 << degree) - 1)
        self.state = int(format(top, f"0{degree}b")[::-1], 2)
        mask = (1 << count) - 1
        return [(stream >> (degree - i)) & mask for i in range(degree)]

    def period(self, limit: Optional[int] = None) -> int:
        """Measured sequence period (2^n - 1 for primitive taps).

        Observation-only: the live register state is saved and restored,
        so measuring the period mid-session does not restart the stream.
        """
        saved = self.state
        try:
            self.reset()
            start = self.state
            limit = limit if limit is not None else (1 << self.degree)
            for count in range(1, limit + 1):
                self.step()
                if self.state == start:
                    return count
            raise RuntimeError(f"period exceeds search limit {limit}")
        finally:
            self.state = saved


BANK_DEGREE = 31
"""Register degree used when ganging fixed-degree LFSRs into a bank.

Wide circuits need more parallel bits than the tabulated polynomials
provide (degree tops out at 32), so :class:`LfsrBank` gangs several
degree-31 registers with distinct seeds instead of scaling the degree
with input count."""


def bank_seed(seed: int, index: int, degree: int = BANK_DEGREE) -> int:
    """A well-mixed nonzero seed for bank member ``index``.

    A low-weight seed starts the register in the impulse-response region
    of the m-sequence, whose long runs would bias short pattern
    sessions; the multiplicative mix avoids that.
    """
    modulus = (1 << degree) - 1
    return (seed * 0x9E3779B1 + index * 0x85EBCA77) % modulus + 1


class LfsrBank:
    """Several fixed-degree LFSRs ganged into one wide pattern source.

    Where a single :class:`Lfsr` caps out at the widest tabulated
    polynomial (degree 32), a bank provides ``width`` parallel bits for
    any ``width >= 1`` by concatenating ``ceil(width / degree)``
    registers seeded through :func:`bank_seed` - the same layout a
    silicon BIST structure would use for a wide scan chain.
    """

    def __init__(self, width: int, seed: int = 1, degree: int = BANK_DEGREE):
        if width < 1:
            raise ValueError("bank width must be at least 1")
        self.width = width
        self.degree = degree
        self.seed = seed
        count = -(-width // degree)
        self.members = [
            Lfsr(degree, seed=bank_seed(seed, index, degree))
            for index in range(count)
        ]

    def reset(self) -> None:
        for member in self.members:
            member.reset()

    def step(self) -> None:
        """Advance every member one clock."""
        for member in self.members:
            member.step()

    def bits(self) -> List[int]:
        """Current ``width`` parallel bits (member registers concatenated)."""
        bits: List[int] = []
        for member in self.members:
            bits.extend(member.bits())
        return bits[: self.width]

    def pattern(self) -> List[int]:
        return self.bits()

    def patterns(self, count: int) -> Iterator[List[int]]:
        """``count`` patterns, advancing one clock between patterns."""
        for _ in range(count):
            self.step()
            yield self.pattern()

    def jump(self, steps: int) -> None:
        for member in self.members:
            member.jump(steps)

    def rows(self, count: int) -> List[int]:
        """``width`` rows of the next ``count`` patterns (see
        :meth:`Lfsr.rows`); every member advances ``count`` clocks."""
        rows: List[int] = []
        for member in self.members:
            rows.extend(member.rows(count))
        return rows[: self.width]
