import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpose import infomat
from flowpose.errors import DegenerateGeometryError, InsufficientDataError

# frozen high-precision oracle values (30-digit scalar evaluation)
DET_111 = 3.10321397029750370684441982617
LOGDET_111 = 1.1324383390339456259470106302
NLL_11_111 = 4.22229021373723225817209227438


class TestBuild:
    def test_zero_params_identity(self):
        assert infomat.build(0, 0, 0) == (1.0, 1.0, 0.0)

    def test_diagonal_example(self):
        assert infomat.build(2, 0, 0) == (np.exp(2), 1.0, 0.0)

    def test_determinant_frozen_value(self):
        c_x, c_y, c_xy = infomat.build(1, 1, 1)
        assert abs(c_x * c_y - c_xy ** 2 - DET_111) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            infomat.build(np.inf, 0, 0)

    def test_positive_definite_random(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(-20, 20, (20000, 3))
        c_x, c_y, c_xy = infomat.build(p[:, 0], p[:, 1], p[:, 2])
        assert (c_x > 0).all() and (c_y > 0).all()
        # determinant through the stable log path; the assembled product
        # cancels to zero once tanh saturates in float64
        det = np.exp(infomat.log_det(p[:, 0], p[:, 1], p[:, 2]))
        assert (det > 0).all()

    def test_tanh_bound(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(-15, 15, (1000, 3))
        c_x, c_y, c_xy = infomat.build(p[:, 0], p[:, 1], p[:, 2])
        assert (np.abs(c_xy) / np.sqrt(c_x * c_y) < 1).all()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-80, 80), st.floats(-80, 80), st.floats(-80, 80))
    def test_stable_log_det_is_finite(self, a, b, g):
        assert np.isfinite(infomat.log_det(a, b, g))


class TestLogDet:
    def test_identity(self):
        assert infomat.log_det(0, 0, 0) == 0.0

    def test_diagonal(self):
        assert abs(infomat.log_det(2, 0, 0) - 2.0) < 1e-15

    def test_frozen_value(self):
        assert abs(infomat.log_det(1, 1, 1) - LOGDET_111) < 1e-12

    def test_matches_assembled_determinant(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, g = rng.uniform(-3, 3, 3)
            c_x, c_y, c_xy = infomat.build(a, b, g)
            assert abs(infomat.log_det(a, b, g)
                       - np.log(c_x * c_y - c_xy ** 2)) < 1e-12


class TestFlowNll:
    def test_zero_residual_identity(self):
        assert infomat.flow_nll(0, 0, 0, 0, 0) == 0.0

    def test_unit_residual_identity(self):
        assert infomat.flow_nll(1, 0, 0, 0, 0) == 0.5

    def test_frozen_composed_value(self):
        assert abs(infomat.flow_nll(1, 1, 1, 1, 1) - NLL_11_111) < 1e-12

    def test_identity_matrix_is_half_squared_norm(self):
        rng = np.random.default_rng(8)
        r = rng.uniform(-3, 3, (100, 2))
        nll = infomat.flow_nll(r[:, 0], r[:, 1], 0.0, 0.0, 0.0)
        assert np.max(np.abs(nll - 0.5 * (r ** 2).sum(axis=1))) < 1e-14

    def test_map_mean(self):
        residuals = np.zeros((4, 4, 2))
        residuals[0, 0] = (1, 0)
        info = np.zeros((4, 4, 3))
        valid = np.ones((4, 4), dtype=bool)
        assert infomat.flow_nll_map(residuals, info, valid) == pytest.approx(0.5 / 16)

    def test_map_empty_mask(self):
        with pytest.raises(InsufficientDataError,
                           match="^no valid pixels in the 3x2 mask$"):
            infomat.flow_nll_map(np.zeros((2, 3, 2)), np.zeros((2, 3, 3)),
                                 np.zeros((2, 3), dtype=bool))


def finite_message(bad, total):
    return ("^information parameters and residuals must be finite: "
            f"{bad} of {total} values are not$")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1])
class TestNonfiniteResidual:
    """A non-finite residual raises the ValueError that a non-finite
    information parameter raises, with no RuntimeWarning."""

    @pytest.mark.parametrize("function", [infomat.flow_nll,
                                          infomat.nll_gradients])
    def test_per_sample(self, bad, axis, function):
        r = [0.0, 0.0]
        r[axis] = bad
        with pytest.raises(ValueError, match=finite_message(1, 2)):
            function(*r, 0, 0, 0)

    def test_map_at_a_valid_pixel(self, bad, axis):
        residuals = np.zeros((4, 4, 2))
        residuals[1, 2, axis] = bad
        valid = np.ones((4, 4), dtype=bool)
        # the 16 valid pixels' two residual components
        with pytest.raises(ValueError, match=finite_message(1, 32)):
            infomat.flow_nll_map(residuals, np.zeros((4, 4, 3)), valid)
        # outside the mask it is not evaluated
        valid[1, 2] = False
        assert infomat.flow_nll_map(
            residuals, np.zeros((4, 4, 3)), valid) == 0.0


def fd_gradients(rx, ry, a, b, g, h=1e-6):
    vals = []
    for k in range(5):
        x = np.array([rx, ry, a, b, g], dtype=float)
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        vals.append((infomat.flow_nll(*xp) - infomat.flow_nll(*xm)) / (2 * h))
    return np.array(vals)


class TestGradients:
    def test_symmetric_point(self):
        g = infomat.nll_gradients(0, 0, 0, 0, 0)
        assert g[0] == 0 and g[1] == 0
        assert g[2] == -0.5 and g[4] == -0.5
        assert g[3] == 0

    def test_residual_gradient(self):
        g = infomat.nll_gradients(1, 0, 0, 0, 0)
        assert g[0] == 1.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            rx, ry = rng.uniform(-2, 2, 2)
            a, b, g = rng.uniform(-2, 2, 3)
            analytic = np.array(infomat.nll_gradients(rx, ry, a, b, g))
            fd = fd_gradients(rx, ry, a, b, g)
            assert np.max(np.abs(analytic - fd) / (1.0 + np.abs(fd))) < 1e-6

    def test_stationarity_by_descent(self):
        # descending on a_hat for a scalar case reaches the analytic optimum
        rx = 0.7
        a = 0.0
        for _ in range(3000):
            grad = infomat.nll_gradients(rx, 0.0, a, 0.0, 0.0)[2]
            a -= 0.05 * grad
        # optimum of 0.5*(e^a r^2 - a): e^a = 1/r^2
        assert abs(a - np.log(1.0 / rx ** 2)) < 1e-6


def test_confidences_are_diagonal_entries():
    exponents = np.stack([np.full((2, 2), 1.0), np.full((2, 2), -1.0)])
    c_x, c_y = infomat.confidences(exponents)
    assert np.allclose(c_x, np.exp(1.0), atol=0)
    assert np.allclose(c_y, np.exp(-1.0), atol=0)
    # in place: the exponentials overwrite the exponents
    out = infomat.confidences(exponents, out=exponents)
    assert out is exponents
    assert np.array_equal(out, np.stack([np.full((2, 2), np.exp(1.0)),
                                         np.full((2, 2), np.exp(-1.0))]))


@pytest.mark.parametrize("row", [0, 1])
def test_confidences_reject_overflow(row):
    exponents = np.zeros((2, 3))
    exponents[row, 1] = 710.0
    with pytest.raises(DegenerateGeometryError, match="overflows") as info:
        infomat.confidences(exponents, out=exponents)
    assert exponents[row, 1] == 710.0   # checked before exp writes
    # the worst exponent and the bound it broke
    assert (info.value.worst, info.value.limit) == (710.0,
                                                    infomat.LOG_FLOAT_MAX)
