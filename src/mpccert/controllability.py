"""Controllability growth sequences.

Everything downstream of this module is parametrized by a finite sequence
``gamma_1, ..., gamma_N`` of growth bounds relating the i-step optimal cost
to the one-step optimal cost,

    V_i(x) <= gamma_i * V_1(x)   for all states x and 1 <= i <= N.

The sequence is the only system information the certification machinery
needs; it can come from an exponential-decay bound, from a summable
coefficient sequence, or (for linear-quadratic problems) from a Riccati
recursion, see :mod:`mpccert.sim.lq`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._output import fmt12, write_csv

__all__ = [
    "GammaSequence",
    "gamma_from_exponential",
    "gamma_from_c_sequence",
    "constant_gamma",
    "check_submultiplicative",
    "gamma_to_csv",
    "gamma_from_csv",
]

GAMMA_CSV_HEADER = "i,gamma"

_CHECK_BLOCK_CELLS = 1 << 14  # array cells per block in check_submultiplicative and stability_region


@dataclass(frozen=True)
class GammaSequence:
    """Finite monotone sequence of growth bounds ``gamma_1 .. gamma_N``.

    ``values[i-1]`` is gamma_i; the leading gamma_0 == 1 is implied by the
    definition (V_0 is the zero function plus one stage) and never stored.
    Certificates need at least two entries, so shorter input is rejected.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError(
                f"need at least gamma_1 and gamma_2, got {len(vals)} entries"
            )
        prev = 1.0
        for i, v in enumerate(vals, start=1):
            if not math.isfinite(v):
                raise ValueError(f"gamma_{i} = {v!r} is not finite")
            if v < 1.0:
                raise ValueError(f"gamma_{i} = {v!r} violates gamma_i >= 1")
            if v < prev:
                raise ValueError(
                    f"gamma_{i} = {v!r} < gamma_{i-1} = {prev!r}: sequence must be nondecreasing"
                )
            prev = v

    @property
    def n(self) -> int:
        """Largest index N for which a bound is available."""
        return len(self.values)

    def truncated(self, n: int) -> "GammaSequence":
        """The leading subsequence gamma_1..gamma_n for 2 <= n <= N; ``self`` at n == N."""
        if not 2 <= n <= self.n:
            raise ValueError(f"cannot truncate to n = {n} entries: need 2 <= n <= N = {self.n}")
        return self if n == self.n else GammaSequence(self.values[:n])


def gamma_from_exponential(C: float, sigma: float, n: int) -> GammaSequence:
    """Growth bounds induced by the decay estimate  beta(r, i) = C * sigma^i * r.

    gamma_i = C * (1 - sigma^i) / (1 - sigma), the i-term geometric partial sum,
    for an overshoot C >= 1 and a decay rate sigma in (0, 1).
    """
    if not (math.isfinite(C) and C >= 1.0):
        raise ValueError(f"overshoot C = {C!r} must be finite and >= 1")
    if not (math.isfinite(sigma) and 0.0 < sigma < 1.0):
        raise ValueError(f"decay rate sigma = {sigma!r} must lie in (0, 1)")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    # accumulate C * sigma^k directly: the closed form (1 - sigma^i)/(1 - sigma)
    # can round gamma_1 below C (and hence below 1) for C near 1
    out = []
    total = 0.0
    term = float(C)
    for _ in range(n):
        total += term
        out.append(total)
        term *= sigma
    return GammaSequence(tuple(out))


def gamma_from_c_sequence(c: Sequence[float]) -> GammaSequence:
    """Partial sums gamma_i = sum_{k < i} c_k of a summable coefficient sequence.

    c_0 >= 1 guarantees gamma_1 >= 1; nonnegativity gives monotonicity.
    """
    vals = [float(v) for v in c]
    if len(vals) < 2:
        raise ValueError("need at least c_0 and c_1")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("coefficients must be finite")
    if vals[0] < 1.0:
        raise ValueError(f"c_0 = {vals[0]!r} must be >= 1 so that gamma_1 >= 1")
    for i, v in enumerate(vals):
        if v < 0.0:
            raise ValueError(f"c_{i} = {v!r} must be nonnegative")
    out = []
    total = 0.0
    for v in vals:
        total += v
        out.append(total)
    return GammaSequence(tuple(out))


def constant_gamma(M: float, n: int) -> GammaSequence:
    """The constant sequence gamma_i = M (finite accumulated overshoot)."""
    if not (math.isfinite(M) and M >= 1.0):
        raise ValueError(f"constant bound M = {M!r} must be finite and >= 1")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return GammaSequence((float(M),) * n)


def check_submultiplicative(gamma: GammaSequence) -> bool:
    """Check Delta_n * Delta_m >= Delta_{n+m} for all n, m >= 1 with n + m <= N.

    Delta_i = gamma_i - gamma_{i-1} with the implied gamma_0 = 1.  When this
    holds, the closed-form index is exact (it coincides with the linear
    program); when it fails the closed form is still a valid lower bound.
    The comparison is exact — callers who need slack should pre-round.

    Row a (0-based) of the comparison tests Delta_{a+1} * Delta_{b+1} <
    Delta_{a+b+2} for every b at once, against a window of the differences
    padded with -inf past N (one buffer, read through a strided view), so
    pairs beyond N never fail.  A pair with b < a repeats the test of (b, a),
    and every pair with a <= b has a < N // 2, so those rows cover all pairs.
    Rows go in blocks of at most ``_CHECK_BLOCK_CELLS`` products, which
    bounds the memory for long sequences.
    """
    n = len(gamma.values)
    g = np.array((1.0, *gamma.values))  # gamma_0..gamma_N
    buf = np.full(2 * n, -np.inf)  # Delta_1..Delta_N, then the padding
    d = np.subtract(g[1:], g[:-1], out=buf[:n])
    targets = as_strided(buf[1:], (n, n), (buf.itemsize, buf.itemsize), writeable=False)
    rows = max(1, _CHECK_BLOCK_CELLS // n)
    for a in range(0, n // 2, rows):
        b = min(a + rows, n // 2)
        if np.any(d[a:b, None] * d < targets[a:b]):
            return False
    return True


def gamma_to_csv(gamma: GammaSequence, path: Union[str, Path, None]) -> None:
    """Write ``i,gamma`` rows, one per index starting at i = 1, 12 significant
    digits; to stdout when ``path`` is None."""
    write_csv(path, GAMMA_CSV_HEADER, (f"{i},{fmt12(v)}" for i, v in enumerate(gamma.values, start=1)))


def gamma_from_csv(path: Union[str, Path]) -> GammaSequence:
    """Read a sequence written by :func:`gamma_to_csv`; strict about the format."""
    raw = Path(path).read_text(encoding="ascii").strip().splitlines()
    if not raw or raw[0].strip() != GAMMA_CSV_HEADER:
        raise ValueError(f"expected header {GAMMA_CSV_HEADER!r}")
    values = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i,gamma', got {line!r}")
        idx = int(parts[0])
        if idx != len(values) + 1:
            raise ValueError(f"line {lineno}: index {idx}, expected {len(values) + 1}")
        values.append(float(parts[1]))
    return GammaSequence(tuple(values))
