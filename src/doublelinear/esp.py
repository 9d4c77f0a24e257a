"""Elementary symmetric polynomials of a finite nonnegative weight sequence.

e_j is the sum, over all j-element subsets of the sequence, of the
product of the chosen entries.  The table is the array e_0 .. e_k (e_0 = 1)
of the coefficients of prod(1 + w_i*t); zero weights are skipped, as they
change no coefficient.  Expanding the leg growth factors prod(1 +/- w_j*mu)
in these polynomials splits them into a sign-independent even part and a
sign-flipping odd part, which is what makes strict positivity of the
expected gain-loss visible term by term.

The expansion is a verification device, not the production path: e_j
grows like binomial(k, j), so with weights near 1 the table overflows
double precision somewhere past k ~ 500 (binomial(500, 250) ~ 1e149 is
still fine, binomial(1100, 550) is not, and reads inf).  Production code
uses the log form exp(s +/- h), s even and h odd in mu; expected_growth_esp
checks it.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .policy import check_count, check_mu

__all__ = [
    "esp_all",
    "esp_naive",
    "expected_growth_product",
    "expected_growth_esp",
    "e2_positive",
]


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


def esp_all(weights: Sequence[float]) -> np.ndarray:
    """e_0 .. e_k as an array of shape (k+1,), via the coefficient recurrence.

    Folds one positive weight at a time into the coefficients of
    prod(1 + w_i*t): fold i is the slice update e_j <- e_j + w*e_{j-1}, j = 1..i+1,
    whose right side is read before it is written.  O(k^2) time, exact subset-sum
    semantics; a coefficient past the float range is inf.
    """
    w = _as_weights(weights)
    e = np.zeros(w.size + 1)
    e[0] = 1.0
    with np.errstate(over="ignore"):
        for i, wi in enumerate(w[w > 0.0].tolist()):
            e[1 : i + 2] += wi * e[: i + 1]
    return e


def esp_naive(weights: Sequence[float], j: int) -> float:
    """Enumeration oracle for e_j: sum over all j-subsets of the product.

    Exponential in k; intended for k <= ~20 as an independent check of
    esp_all.  Subsets holding a zero weight add nothing and are skipped.
    """
    w = _as_weights(weights)
    if check_count("j", j) > w.size:
        raise ValueError(f"j must lie in [1, {w.size}], got {j}")
    return float(
        sum(math.prod(combo) for combo in itertools.combinations(w[w > 0.0].tolist(), j))
    )


def expected_growth_product(weights: Sequence[float], mu: float, sign) -> float:
    """Expected growth factor of one leg, prod(1 + sign*w_j*mu)."""
    s = _sign_factor(sign)
    w = _as_weights(weights)
    check_mu(float(mu))  # one drift: a grid would pair with the weights elementwise
    return float(np.prod(1.0 + s * w * mu))


def expected_growth_esp(e, mu: float, sign) -> float:
    """The same growth factor from the table e = esp_all(weights):

        e_0 +/- sum_{j odd} e_j mu^j + sum_{j even, j > 0} e_j mu^j

    Only the odd-power block carries the sign; the even block is shared
    by both legs, which is why the two legs average to 1 + (even block).
    """
    s = _sign_factor(sign)
    check_mu(mu := float(mu))  # one drift, not a grid
    e = np.asarray(e, dtype=float)
    if e.ndim != 1 or e.size == 0 or e[0] != 1.0:
        raise ValueError("e must be a one-dimensional array e_0 .. e_k with e_0 = 1")
    terms = [ej * mu**j if mu or not j else 0.0 for j, ej in enumerate(e.tolist())]  # not 0 * inf
    return terms[0] + s * sum(terms[1::2]) + sum(terms[2::2])


def e2_positive(weights: Sequence[float]) -> bool:
    """Whether e_2 > 0: true iff at least two entries are strictly positive.

    Comparison is exact (> 0), not tolerance-based: the statement is
    about exact zeros of the inputs.
    """
    w = _as_weights(weights)
    if w.size < 2:
        raise ValueError(f"need at least two weights, got {w.size}")
    return int(np.count_nonzero(w > 0.0)) >= 2
