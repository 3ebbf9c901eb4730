"""``_hurwitz_zeta`` gives the value and slope bits of the two functions it
merged, so the maximum-likelihood exponent in reports cannot move."""
from __future__ import annotations

import random

import pytest

import zeta_oracle
from jarnet.topology import _hurwitz_zeta


@pytest.mark.parametrize("seed", range(5))
def test_value_and_slope_bits_match_oracle(seed):
    rng = random.Random(seed)
    for _ in range(200):
        s = 1.0 + rng.uniform(1e-9, 8.0)
        a = float(rng.randint(1, 50))
        assert _hurwitz_zeta(s, a) == (zeta_oracle._hurwitz_zeta(s, a),
                                       zeta_oracle._hurwitz_zeta_deriv(s, a))
