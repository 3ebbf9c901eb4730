"""The Hurwitz zeta value and slope that ``jarnet.topology._hurwitz_zeta``
now computes from one set of powers, as the two separate functions it
replaced, kept verbatim as a differential oracle."""
from __future__ import annotations

import math

import numpy as np


def _hurwitz_zeta(s: float, a: float, terms: int = 1000) -> float:
    """Sum of (a+j)^-s for j >= 0 via direct terms + tail correction."""
    j = np.arange(terms, dtype=np.float64)
    head = float(((a + j) ** -s).sum())
    edge = a + terms
    tail = edge ** (1.0 - s) / (s - 1.0) + 0.5 * edge ** -s \
        + s * edge ** (-s - 1.0) / 12.0
    return head + tail


def _hurwitz_zeta_deriv(s: float, a: float, terms: int = 1000) -> float:
    """d/ds of the sum above (always negative for s > 1)."""
    j = np.arange(terms, dtype=np.float64)
    u = a + j
    head = float((np.log(u) * u ** -s).sum())
    edge = a + terms
    ln_edge = math.log(edge)
    tail = edge ** (1.0 - s) * (ln_edge * (s - 1.0) + 1.0) / (s - 1.0) ** 2 \
        + 0.5 * ln_edge * edge ** -s \
        + (s * ln_edge - 1.0) * edge ** (-s - 1.0) / 12.0
    return -(head + tail)
