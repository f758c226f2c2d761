"""Shared helpers for the test suite."""
import numpy as np

from mpccert import GammaSequence
from mpccert.sim import LqModel


def random_monotone_gamma(rng: np.random.Generator, n: int) -> GammaSequence:
    """A random valid growth sequence: gamma_1 >= 1, nondecreasing, finite.

    Increments are a mix of zeros and positive jumps so that the sample
    space covers flat stretches, steep growth, and everything between.
    """
    g1 = 1.0 + float(rng.uniform(0.0, 3.0))
    incs = rng.uniform(0.0, 1.5, size=n - 1) * (rng.random(n - 1) < 0.7)
    return GammaSequence(tuple(np.cumsum(np.concatenate([[g1], incs]))))


def nonsymmetric_lq() -> LqModel:
    """Three states, two inputs and non-symmetric weights; only their
    symmetric parts enter the cost, so d(x'Qx)/dx = (Q + Q')x."""
    A = [[1.1, 0.2, 0.0], [0.0, 0.9, 0.3], [0.1, 0.0, 1.0]]
    B = [[1.0, 0.0], [0.5, 0.2], [0.0, 1.0]]
    Q = [[2.0, 0.5, 0.0], [-0.3, 1.0, 0.2], [0.0, 0.4, 1.5]]
    R = [[1.0, 0.3], [-0.1, 2.0]]
    return LqModel(A, B, Q, R, name="lq-3x2")
