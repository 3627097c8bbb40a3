import numpy as np
import pytest

from nlmagic import DecayCurve, avg_gate_fidelity, fit_exp_decay, synth_rb_curve
from nlmagic.benchfit import _initial_guess, decay_curve_from_csv


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


def test_noise_free_rb_curve_is_the_decay_model_and_fits_back():
    curve = synth_rb_curve(0.5, 0.97, 0.45, [20, 1, 5, 5, 3])
    np.testing.assert_array_equal(curve.n_cliffords, [1, 3, 5, 20])
    np.testing.assert_array_equal(curve.survival, 0.5 * 0.97 ** np.array([1, 3, 5, 20]) + 0.45)
    fit = fit_exp_decay(curve)
    assert abs(fit.p - 0.97) <= 1e-9
    assert fit.residual_rms <= 1e-12


def test_avg_gate_fidelity_formulas():
    assert avg_gate_fidelity(1.0, 2) == (1.0, 1.0)
    f_cl, f_gate = avg_gate_fidelity(0.98, 4)
    assert f_cl == pytest.approx(1.0 - 0.75 * 0.02, abs=1e-15)
    assert f_gate == pytest.approx(f_cl ** (1 / 1.875), abs=1e-15)
    for p, d in ((0.0, 2), (1.5, 2), (0.9, 1)):
        with pytest.raises(ValueError):
            avg_gate_fidelity(p, d)


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf])
def test_decay_curve_rejects_lengths_that_are_not_integers(bad):
    with pytest.raises(ValueError, match="^sequence lengths must be integers$"):
        DecayCurve(np.array([1.0, bad, 30.0, 40.0]), np.array([0.9, 0.8, 0.7, 0.6]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.1])
def test_decay_curve_rejects_survival_that_is_no_probability(bad):
    # NaN fails every comparison, so it is rejected by asking for [0, 1].
    with pytest.raises(ValueError, match=r"^survival probabilities must be finite and lie in \[0, 1\]$"):
        DecayCurve(np.array([1, 10, 30, 40]), np.array([0.9, bad, 0.7, 0.6]))


def test_csv_header_is_read_only_on_the_first_non_blank_line():
    rows = "1,0.9\n2,0.8\n3,0.7\n5,0.6\n"
    curve = decay_curve_from_csv("\n length,survival\n" + rows)
    np.testing.assert_array_equal(curve.n_cliffords, [1, 2, 3, 5])
    assert curve.n_cliffords.dtype == int
    np.testing.assert_array_equal(decay_curve_from_csv(rows).survival, [0.9, 0.8, 0.7, 0.6])
    mistyped = "length,survival\n1,0.9\nx2,0.8\n3,0.7\n5,0.6\n"
    with pytest.raises(ValueError, match=r"^line 3 has a length that is not a number: 'x2,0.8'$"):
        decay_curve_from_csv(mistyped)
    with pytest.raises(ValueError, match="^sequence lengths must be integers$"):
        decay_curve_from_csv("1,0.9\n1.5,0.8\n3,0.7\n5,0.6\n")
