import numpy as np
import pytest

from nlmagic import DecayCurve, fit_exp_decay
from nlmagic.benchfit import _initial_guess


def _cost(n, y, a, p, b):
    r = a * p**n + b - y
    return float(r @ r)


# Curves on which every halving of some Gauss-Newton step raised the cost;
# accepting the last halved step left the fit above its own starting guess.
FLAT_CURVES = [
    (
        [169, 249, 440, 449],
        [0.44612375565210616, 0.4499068937403171, 0.4493390875695809, 0.4598268987067054],
    ),
    (
        [210, 248, 368, 416, 446],
        [
            0.42413825161624547,
            0.42531013318170324,
            0.42677723519337946,
            0.4258675315297956,
            0.4253597851542164,
        ],
    ),
]


@pytest.mark.parametrize("lengths, survival", FLAT_CURVES, ids=["four-points", "five-points"])
def test_fit_never_ends_above_its_initial_guess(lengths, survival):
    curve = DecayCurve(np.array(lengths), np.array(survival))
    n = curve.n_cliffords.astype(float)
    fit = fit_exp_decay(curve)
    start = _cost(n, curve.survival, *_initial_guess(n, curve.survival))
    assert _cost(n, curve.survival, fit.a, fit.p, fit.b) <= start
