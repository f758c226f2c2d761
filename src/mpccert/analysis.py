"""Horizon analysis built on top of the certificates.

Answers the design questions around the index alpha_{N,m}: how long must
the prediction horizon be before stability is certified, how does the
choice of control horizon m shift that threshold, and for which
exponential-bound parameters (C, sigma) is a given (N, m) pair stable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from ._output import fmt12, write_csv
from .certificate import CLOSED_FORM, _alpha_profile, _profile
from .controllability import _CHECK_BLOCK_CELLS, GammaSequence, constant_gamma, gamma_from_exponential

__all__ = [
    "HorizonResult",
    "HorizonSearchError",
    "RegionGrid",
    "minimal_horizon",
    "exponential_family",
    "constant_family",
    "horizon_bound_m1",
    "horizon_bound_half",
    "horizon_table",
    "stability_region",
    "alpha_profile_m",
    "profile_to_csv",
    "region_to_csv",
    "horizon_table_to_csv",
]

GammaFactory = Callable[[int], GammaSequence]

REGION_CSV_HEADER = "C,sigma,stable"
PROFILE_CSV_HEADER = "m,alpha"
HORIZON_CSV_HEADER = "M,N_hat_m1,N_hat_half,bound_m1,bound_half"


class HorizonSearchError(RuntimeError):
    """No stabilizing horizon found up to the search cap."""

    def __init__(self, n_max: int, alpha_at_max: float, policy: str):
        self.n_max = n_max
        self.alpha_at_max = alpha_at_max
        self.policy = policy
        super().__init__(
            f"no horizon with alpha >= 0 found up to N = {n_max} "
            f"(policy {policy}, alpha at the cap: {alpha_at_max:.6g})"
        )


@dataclass(frozen=True)
class HorizonResult:
    """Smallest certified horizon, bracketed by the last failing one."""

    n_hat: int
    m: int
    alpha: float  # index at (n_hat, m); >= 0 by construction
    alpha_before: float  # best index at n_hat - 1, < 0 unless n_hat == 2
    policy: str


def _integer(value, name: str) -> int:
    """``value`` as an int: any integral type but bool, else ValueError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def exponential_family(C: float, sigma: float) -> GammaFactory:
    """Growth-bound factory N -> gamma_1..gamma_N for exponential decay."""
    return lambda n: gamma_from_exponential(C, sigma, n)


def constant_family(M: float) -> GammaFactory:
    """Growth-bound factory for the constant overshoot bound."""
    return lambda n: constant_gamma(M, n)


def minimal_horizon(
    factory: GammaFactory,
    policy: Union[int, str] = 1,
    *,
    n_max: int = 600,
) -> HorizonResult:
    """Linear scan for the smallest N >= 2 whose closed-form index is nonnegative.

    ``policy`` fixes how the control horizon follows N: a literal integer m,
    "best" (maximize over m each N, ties to the smallest m), or "half"
    (m = floor(N/2), at least 1).  The scan is linear rather than bisective
    because alpha need not be monotone in N for arbitrary growth sequences.
    """
    if not isinstance(policy, str):
        policy = _integer(policy, "policy")
        if policy < 1:
            raise ValueError(f"fixed control horizon must be >= 1, got {policy}")
    elif policy not in ("best", "half"):
        raise ValueError(f"unknown policy {policy!r}: expected an integer m, 'best', or 'half'")
    last_alpha = -math.inf
    first = policy + 1 if isinstance(policy, int) else 2  # a fixed m needs N >= m + 1
    for n in range(first, n_max + 1):
        profile = _profile(factory(n), CLOSED_FORM)
        if policy == "best":
            m = int(np.argmax(profile)) + 1  # the first maximum
        elif policy == "half":
            m = max(1, n // 2)
        else:
            m = policy
        alpha = float(profile[m - 1])
        if alpha >= 0.0:
            return HorizonResult(
                n_hat=n,
                m=m,
                alpha=alpha,
                alpha_before=last_alpha,
                policy=str(policy),
            )
        last_alpha = alpha
    raise HorizonSearchError(n_max, last_alpha, str(policy))


def horizon_bound_m1(M: float) -> float:
    """Horizon threshold for m = 1 under the constant bound gamma_i = M > 1.

    N >= 2 + ln(M - 1) / (ln M - ln(M - 1)) is exactly the condition
    alpha_{N,1} >= 0, so the minimal stabilizing horizon is the smallest
    integer at or above this value.  Grows like M ln M.
    """
    if not (math.isfinite(M) and M > 1.0):
        raise ValueError(f"constant bound M = {M!r} must be finite and > 1")
    d = math.log(M) - math.log(M - 1.0)
    return 2.0 + math.log(M - 1.0) / d


def horizon_bound_half(M: float, parity: str = "even") -> float:
    """Horizon threshold for m = floor(N/2) under the constant bound M > 1.

    For even N the condition alpha_{N,N/2} >= 0 is M^(N/2) >= 2 (M-1)^(N/2),
    i.e. N >= 2 ln 2 / (ln M - ln(M-1)).  For odd N = 2h+1 it reads
    (M/(M-1))^h >= (2M-1)/M, giving a single logarithm of the product
    ((2M-1)/M) * ((2M-1)/(M-1)) in the numerator.  Both thresholds grow
    like 2 ln 2 * M — half-horizon updates need roughly a log-factor
    shorter horizon than m = 1.
    """
    if not (math.isfinite(M) and M > 1.0):
        raise ValueError(f"constant bound M = {M!r} must be finite and > 1")
    d = math.log(M) - math.log(M - 1.0)
    if parity == "even":
        return 2.0 * math.log(2.0) / d
    if parity == "odd":
        r = 2.0 * M - 1.0
        return math.log((r / M) * (r / (M - 1.0))) / d
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def horizon_table(M_values: Iterable[float], *, n_max: int = 600) -> list[dict]:
    """Minimal horizons and analytic thresholds for a sweep of constant bounds."""
    rows = []
    for M in M_values:
        m1 = minimal_horizon(constant_family(M), 1, n_max=n_max)
        half = minimal_horizon(constant_family(M), "half", n_max=n_max)
        rows.append(
            {
                "M": float(M),
                "N_hat_m1": m1.n_hat,
                "N_hat_half": half.n_hat,
                "bound_m1": horizon_bound_m1(M),
                "bound_half": horizon_bound_half(M, "even"),
            }
        )
    return rows


@dataclass(frozen=True)
class RegionGrid:
    """Stability verdicts over an exponential-bound parameter grid.

    ``stable[i, j]`` is the verdict (alpha >= 0) at C_values[i], sigma_values[j].
    """

    horizon: int
    m: int
    C_values: np.ndarray
    sigma_values: np.ndarray
    stable: np.ndarray

    def fraction_stable(self) -> float:
        return float(np.count_nonzero(self.stable)) / self.stable.size


def default_region_axes(
    C_range: tuple[float, float] = (1.0, 10.0),
    sigma_range: tuple[float, float] = (0.01, 0.99),
    cells: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive uniform axes for :func:`stability_region`."""
    if cells < 2:
        raise ValueError("need at least a 2x2 grid")
    return (
        np.linspace(C_range[0], C_range[1], cells),
        np.linspace(sigma_range[0], sigma_range[1], cells),
    )


def stability_region(
    horizon: int,
    m: int,
    C_values: Sequence[float] | np.ndarray | None = None,
    sigma_values: Sequence[float] | np.ndarray | None = None,
) -> RegionGrid:
    """Evaluate the closed-form stability verdict on a (C, sigma) grid for fixed (N, m).

    The verdict is monotone in both parameters (larger overshoot or slower
    decay only hurts), so each sigma-column of the mask is a prefix of
    stable cells in C.  A block of sigma-columns (``_CHECK_BLOCK_CELLS``
    bounds, or one column) is one profile-kernel call on bounds accumulated
    as in :func:`gamma_from_exponential`, so each cell's verdict is that of
    ``certificate(CertificateQuery(gamma_from_exponential(C, sigma, N), N, m))``.
    """
    if C_values is None or sigma_values is None:
        dC, dS = default_region_axes()
        C_values = dC if C_values is None else C_values
        sigma_values = dS if sigma_values is None else sigma_values
    C_values = np.asarray(C_values, dtype=float)
    sigma_values = np.asarray(sigma_values, dtype=float)
    if C_values.ndim != 1 or not C_values.size or not np.all(np.isfinite(C_values) & (C_values >= 1.0)):
        raise ValueError("overshoot axis must be a non-empty 1-D sequence of finite C >= 1")
    if sigma_values.ndim != 1 or not sigma_values.size or not np.all((sigma_values > 0.0) & (sigma_values < 1.0)):
        raise ValueError("decay axis must be a non-empty 1-D sequence strictly inside (0, 1)")
    horizon, m = _integer(horizon, "prediction horizon N"), _integer(m, "control horizon m")
    if not 1 <= m <= horizon - 1:
        raise ValueError(f"control horizon m = {m} must satisfy 1 <= m <= N - 1 = {horizon - 1}")
    mask = np.zeros((C_values.size, sigma_values.size), dtype=bool)
    width = max(1, _CHECK_BLOCK_CELLS // (C_values.size * horizon))  # sigma-columns per block
    for j in range(0, sigma_values.size, width):
        sig = sigma_values[j : j + width]
        gamma = np.empty((C_values.size, sig.size, horizon))
        total = np.zeros((C_values.size, sig.size))
        term = np.repeat(C_values[:, None], sig.size, axis=1)
        for k in range(horizon):
            total += term
            gamma[..., k] = total
            term *= sig
        mask[:, j : j + width] = _alpha_profile(gamma)[..., m - 1] >= 0.0
    return RegionGrid(
        horizon=horizon,
        m=m,
        C_values=C_values,
        sigma_values=sigma_values,
        stable=mask,
    )


def alpha_profile_m(gamma: GammaSequence, horizon: int, method: str = CLOSED_FORM) -> list[tuple[int, float]]:
    """The index as a function of the control horizon m = 1..N-1.

    Either route ("closed_form" or the exact "linear_program") is one
    kernel call for the whole profile.
    """
    return list(enumerate(_profile(gamma.truncated(horizon), method).tolist(), start=1))


def region_to_csv(grid: RegionGrid, path: Union[str, Path], config_line: str | None = None) -> None:
    """Rows ordered C-major: all sigma for the first C, then the next C."""
    rows = (
        f"{fmt12(C)},{fmt12(sig)},{int(grid.stable[i, j])}"
        for i, C in enumerate(grid.C_values)
        for j, sig in enumerate(grid.sigma_values)
    )
    write_csv(path, REGION_CSV_HEADER, rows, config_line)


def profile_to_csv(
    profile: list[tuple[int, float]], path: Union[str, Path, None], config_line: str | None = None
) -> None:
    """``m,alpha`` rows; to stdout when ``path`` is None."""
    write_csv(path, PROFILE_CSV_HEADER, (f"{m},{fmt12(alpha)}" for m, alpha in profile), config_line)


def horizon_table_to_csv(rows: list[dict], path: Union[str, Path], config_line: str | None = None) -> None:
    lines = (
        f"{fmt12(r['M'])},{r['N_hat_m1']},{r['N_hat_half']},{fmt12(r['bound_m1'])},{fmt12(r['bound_half'])}"
        for r in rows
    )
    write_csv(path, HORIZON_CSV_HEADER, lines, config_line)
