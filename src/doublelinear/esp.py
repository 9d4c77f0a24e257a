"""Elementary symmetric polynomials of a finite nonnegative weight sequence.

e_j is the sum, over all j-element subsets of the sequence, of the
product of the chosen entries.  Expanding the leg growth factors
prod(1 +/- w_j * mu) in these polynomials splits them into a
sign-independent even part and a sign-flipping odd part, which is what
makes strict positivity of the expected gain-loss visible term by term.

The expansion is a verification device, not the production path: e_j
grows like binomial(k, j), so with weights near 1 the table overflows
double precision somewhere past k ~ 500 (binomial(500, 250) ~ 1e149 is
still fine, binomial(1100, 550) is not).  Production code uses the log
form exp(s +/- h), s even and h odd in mu; expected_growth_esp checks it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .policy import check_count, check_mu

__all__ = [
    "EspTable",
    "esp_all",
    "esp_naive",
    "expected_growth_product",
    "expected_growth_esp",
    "e2_positive",
]


@dataclass(frozen=True)
class EspTable:
    """e_1 .. e_k of a weight sequence; e_0 = 1 by the empty-product rule."""

    k: int
    values: np.ndarray  # values[j-1] = e_j

    def e(self, j: int) -> float:
        if not 0 <= j <= self.k:
            raise IndexError(f"j must lie in [0, {self.k}], got {j}")
        return 1.0 if j == 0 else float(self.values[j - 1])


def _as_weights(weights: Sequence[float]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty one-dimensional sequence")
    if not np.all((w >= 0.0) & (w < np.inf)):  # nan fails both comparisons
        raise ValueError("weights must be finite and nonnegative")
    return w


def _sign_factor(sign) -> float:
    if sign in (1, "+"):
        return 1.0
    if sign in (-1, "-"):
        return -1.0
    raise ValueError(f"sign must be +1, -1, '+' or '-', got {sign!r}")


def esp_all(weights: Sequence[float]) -> EspTable:
    """All elementary symmetric polynomials via the coefficient recurrence.

    Folds one weight at a time into the coefficient array of
    prod(1 + w_i*t): each fold applies e_j <- e_j + w*e_{j-1}, sweeping
    j from high to low so the e_{j-1} consumed is still the pre-fold
    value.  O(k^2) time, exact subset-sum semantics.
    """
    w = _as_weights(weights)
    k = w.size
    e = [0.0] * (k + 1)
    e[0] = 1.0
    for i, wi in enumerate(w.tolist()):
        for j in range(i + 1, 0, -1):
            e[j] += wi * e[j - 1]
    return EspTable(k=k, values=np.array(e[1:]))


def esp_naive(weights: Sequence[float], j: int) -> float:
    """Enumeration oracle for e_j: sum over all j-subsets of the product.

    Exponential in k; intended for k <= ~20 as an independent check of
    esp_all.
    """
    w = _as_weights(weights)
    if check_count("j", j) > w.size:
        raise ValueError(f"j must lie in [1, {w.size}], got {j}")
    return float(
        sum(math.prod(combo) for combo in itertools.combinations(w.tolist(), j))
    )


def expected_growth_product(weights: Sequence[float], mu: float, sign) -> float:
    """Expected growth factor of one leg, prod(1 + sign*w_j*mu)."""
    s = _sign_factor(sign)
    w = _as_weights(weights)
    check_mu(float(mu))  # one drift: a grid would pair with the weights elementwise
    return float(np.prod(1.0 + s * w * mu))


def expected_growth_esp(esp: EspTable, mu: float, sign) -> float:
    """The same growth factor from the polynomial expansion.

        1 +/- sum_{j odd} e_j mu^j + sum_{j even} e_j mu^j,  j = 1..k

    Only the odd-power block carries the sign; the even block is shared
    by both legs, which is why the two legs average to 1 + (even block).
    """
    s = _sign_factor(sign)
    check_mu(float(mu))  # one drift, not a grid
    terms = [esp.e(j) * mu**j for j in range(1, esp.k + 1)]
    return 1.0 + s * sum(terms[0::2]) + sum(terms[1::2])


def e2_positive(weights: Sequence[float]) -> bool:
    """Whether e_2 > 0: true iff at least two entries are strictly positive.

    Comparison is exact (> 0), not tolerance-based: the statement is
    about exact zeros of the inputs.
    """
    w = _as_weights(weights)
    if w.size < 2:
        raise ValueError(f"need at least two weights, got {w.size}")
    return int(np.count_nonzero(w > 0.0)) >= 2
