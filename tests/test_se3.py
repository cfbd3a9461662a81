import itertools
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpose import camera, se3
from flowpose.errors import CheiralityError


def series_exp(M, terms=30):
    """Truncated power-series matrix exponential (independent oracle)."""
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


def xi_to_matrix(xi):
    G = se3.generators()
    return np.einsum('j,jkl->kl', xi, G)


class TestGenerators:
    def test_translation_x(self):
        G = se3.generators()
        expected = np.zeros((4, 4))
        expected[0, 3] = 1.0
        assert np.array_equal(G[0], expected)

    def test_rotation_z(self):
        G = se3.generators()
        expected = np.zeros((4, 4))
        expected[0, 1] = -1.0
        expected[1, 0] = 1.0
        assert np.array_equal(G[5], expected)

    def test_zero_combination(self):
        assert np.array_equal(xi_to_matrix(np.zeros(6)), np.zeros((4, 4)))

    def test_translation_generators_shape(self):
        G = se3.generators()
        for j in range(3):
            assert np.count_nonzero(G[j]) == 1
            assert G[j][j, 3] == 1.0

    def test_rotation_generators_skew(self):
        G = se3.generators()
        for j in range(3, 6):
            block = G[j][:3, :3]
            assert np.array_equal(block, -block.T)
            assert np.count_nonzero(G[j][:, 3]) == 0
            assert np.count_nonzero(G[j][3]) == 0

    def test_directional_derivative_closure(self):
        # G_j = d/deps exp(eps e_j) at 0, central differences
        G = se3.generators()
        eps = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = eps
            fd = (se3.exp(e) - se3.exp(-e)) / (2 * eps)
            assert np.max(np.abs(fd - G[j])) < 1e-8


class TestExp:
    def test_identity(self):
        assert np.allclose(se3.exp(np.zeros(6)), np.eye(4), atol=0)

    def test_pure_translation(self):
        T = se3.exp([0.1, 0, 0, 0, 0, 0])
        assert np.allclose(T[:3, :3], np.eye(3), atol=0)
        assert np.allclose(T[:3, 3], [0.1, 0, 0], atol=0)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            xi = rng.uniform(-1, 1, 6)
            w = xi[3:]
            n = np.linalg.norm(w)
            if n > np.pi - 0.1:
                xi[3:] = w / n * (np.pi - 0.1)
            expected = series_exp(xi_to_matrix(xi))
            assert np.max(np.abs(se3.exp(xi) - expected)) < 1e-12

    def test_small_angle_branch(self):
        # 1.5e-6 is just above the old 1e-6 switch of the coefficients,
        # where (t - sin t) / t^3 put the translation 7.3e-12 off
        for xi in ([0.01, -0.02, 0.03, 1e-8, -2e-8, 1.5e-8],
                   [1.0, 0.0, 0.0, 0.0, 0.0, 1.5e-6]):
            xi = np.array(xi)
            expected = series_exp(xi_to_matrix(xi))
            assert np.max(np.abs(se3.exp(xi) - expected)) < 1e-14, xi

    def test_nonfinite_rejected(self):
        # in each component: a twist and a one-row stack raise the same
        # message
        for component, value in itertools.product(range(6),
                                                  [np.nan, np.inf, -np.inf]):
            one = np.array([0.1, -0.2, 0.3, 0.01, 0.02, -0.03])
            one[component] = value
            message = ("motion vector must be finite, got ("
                       + ", ".join(f"{v:g}" for v in one) + ")")
            for xi in (one, one[None], one.tolist()):
                with pytest.raises(ValueError) as exc:
                    se3.exp(xi)
                assert str(exc.value) == message

    def test_nonfinite_stack_names_its_first_bad_row(self):
        xi = np.zeros((4, 6))
        xi[1, 2] = np.inf
        xi[3, 0] = np.nan
        with pytest.raises(ValueError) as exc:
            se3.exp(xi)
        assert str(exc.value) == (
            "motion vector must be finite, got (0, 0, inf, 0, 0, 0)")

    def test_stack_matches_rows(self):
        # both branches of the coefficients, zero and pure-translation rows
        rng = np.random.default_rng(8)
        xi = np.concatenate([rng.normal(0, 0.05, (300, 6)),
                             rng.normal(0, 1.0, (100, 6)),
                             rng.normal(0, 1e-8, (50, 6)), np.zeros((2, 6)),
                             [[0.1, -0.2, 0.3, 0.0, 0.0, 0.0]]])
        rng.shuffle(xi)
        stack = se3.exp(xi)
        assert stack.shape == (len(xi), 4, 4)
        assert np.array_equal(stack, np.array([se3.exp(x) for x in xi]))
        assert se3.exp(np.zeros((0, 6))).shape == (0, 4, 4)

    @pytest.mark.parametrize("bad", [np.zeros((3, 5)), np.zeros((2, 6, 1)),
                                     [[0, 0, 0, 0, np.inf, 0]]])
    def test_bad_stack_rejected(self, bad):
        with pytest.raises(ValueError):
            se3.exp(bad)

    def test_angle_at_bound_is_finite(self):
        xi = np.array([[1.0, -2.0, 3.0, 0.0, 0.0, 0.0]] * 3)
        xi[:, 3:] = np.eye(3) * se3.MAX_ANGLE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = se3.exp(xi)
            one = se3.exp(xi[2])
        assert np.all(np.isfinite(stack))
        assert np.array_equal(one, stack[2])

    # beyond the bound the cube of the angle overflowed (from 5.6e102) and
    # its square (from 1.3e154): a wrong or NaN transform, exit 0 in synth
    @pytest.mark.parametrize("w", [[0, 0, 1.000001], [0, 0, 1e3], [0, 0, 1e55],
                                   [0, 0, 1e200], [0.8, 0, -0.8]])
    def test_angle_beyond_bound_rejected(self, w):
        one = np.concatenate([[0.1, 0.2, 0.3], np.multiply(w, se3.MAX_ANGLE)])
        stack = np.zeros((4, 6))
        stack[2] = one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xi in (one, one[None], stack):
                with pytest.raises(ValueError,
                                   match="^motion vector's rotation angle "
                                         "exceeds 1e\\+100$"):
                    se3.exp(xi)

    def test_row_norms_match_rows(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(500, 4, 4)) * rng.uniform(0, 10, (500, 1, 1))
        for rows in (x[:, 0, :3], x[:, :3, 3], np.diff(x[:, :3, 3], axis=0)):
            assert np.array_equal(se3.row_norms(rows),
                                  [np.linalg.norm(r) for r in rows])

    def test_maps_into_se3(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            xi = rng.uniform(-1, 1, 6) * 2
            assert se3.is_rigid(se3.exp(xi))

    def test_reflection_and_scaled_rotation_are_not_rigid(self):
        T = se3.exp([0.1, -0.2, 0.3, 0.2, -0.1, 0.3])
        reflected = T.copy()
        reflected[:3, 0] *= -1.0    # orthonormal, det -1
        scaled = T.copy()
        scaled[:3, :3] *= 1.01      # det 1.01^3, R^T R = 1.0201 I
        assert se3.is_rigid(T)
        assert not se3.is_rigid(reflected)
        assert not se3.is_rigid(scaled)


def decimal_coefficients(t, digits=70):
    """(A, B, C) of a float angle t from their Taylor series, summed in
    decimal arithmetic: sum_k (-1)^k t^2k / (2k + j)! for j = 1, 2, 3."""
    with localcontext() as ctx:
        ctx.prec = digits
        t2 = Decimal(t) ** 2
        out = []
        for j in (1, 2, 3):
            term = Decimal(1) / math.factorial(j)
            total, k = Decimal(0), 0
            while term != 0 and abs(term) > abs(total) * Decimal(10) ** -digits:
                total += term
                k += 1
                term = -term * t2 / ((2 * k + j - 1) * (2 * k + j))
            out.append(total)
        return out


class TestCoefficients:
    SWITCH = se3._SERIES_ANGLE
    ANGLES = [0.0, 5e-324, 1e-300, 1e-8,
              np.nextafter(se3.SMALL_ANGLE, 0), se3.SMALL_ANGLE,
              np.nextafter(se3.SMALL_ANGLE, 1),
              np.nextafter(SWITCH, 0), SWITCH, np.nextafter(SWITCH, 2),
              *np.geomspace(1e-6, np.pi, 200).tolist(), 10.0]

    def test_within_1e_15_of_decimal_series(self):
        coefficients = np.array(se3._coefficients(np.array(self.ANGLES))).T
        for t, got in zip(self.ANGLES, coefficients):
            for value, want in zip(got.tolist(), decimal_coefficients(t)):
                assert abs(Decimal(value) / want - 1) < Decimal("1e-15"), t


class TestLog:
    def test_identity(self):
        assert np.array_equal(se3.log(np.eye(4)), np.zeros(6))

    def test_roundtrip_example(self):
        xi = np.array([0.02, -0.01, 0.03, 0.01, -0.02, 0.015])
        assert np.linalg.norm(se3.log(se3.exp(xi)) - xi) < 1e-10

    def test_quarter_turn_about_z(self):
        T = np.eye(4)
        T[:3, :3] = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        expected = np.array([0, 0, 0, 0, 0, np.pi / 2])
        assert np.linalg.norm(se3.log(T) - expected) < 1e-9

    def test_angle_near_pi_rejected(self):
        T = se3.exp([0, 0, 0, 0, 0, np.pi - 1e-9])
        with pytest.raises(ValueError):
            se3.log(T)

    @pytest.mark.parametrize("angle", [5e-7, 1.1e-6, 1e-5, 1e-4, 1e-2])
    def test_roundtrip_small_angles(self, angle):
        # on both sides of SMALL_ANGLE, where log switches to its series
        rng = np.random.default_rng(72)
        for _ in range(50):
            axis = rng.normal(size=3)
            xi = np.concatenate([rng.uniform(-1, 1, 3),
                                 axis / np.linalg.norm(axis) * angle])
            assert np.max(np.abs(se3.log(se3.exp(xi)) - xi)) < 1e-14, xi

    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 3e-6,
                                       1.01e-6])
    def test_roundtrip_near_pi(self, delta):
        # the angle is pi - delta, as close to pi as log accepts; arccos of
        # the trace put it about 2e-3 off at 1.01e-6, and the axis from the
        # skew part of R 1.7e-10
        rng = np.random.default_rng(73)
        for _ in range(20):
            axis = rng.normal(size=3)
            xi = np.concatenate([rng.uniform(-1, 1, 3), axis
                                 / np.linalg.norm(axis) * (np.pi - delta)])
            assert np.max(np.abs(se3.log(se3.exp(xi)) - xi)) < 1e-14, xi

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-0.9, 0.9), min_size=6, max_size=6))
    def test_roundtrip_property(self, xi):
        xi = np.array(xi)
        assert np.linalg.norm(se3.log(se3.exp(xi)) - xi) < 1e-9


def xi_to_ad(xi):
    """The 6x6 adjoint of a motion vector, ordered as the motion vector."""
    ad = np.zeros((6, 6))
    ad[:3, :3] = ad[3:, 3:] = se3.hat(xi[3:])
    ad[:3, 3:] = se3.hat(xi[:3])
    return ad


class TestLeftJacobian:
    @pytest.mark.parametrize("angle", [0.0, 1e-9, 1e-4, 0.01, 0.05, 0.0999,
                                       0.1001, 0.3, 1.0, 2.5, 3.1])
    def test_matches_power_series(self, angle):
        rng = np.random.default_rng(71)
        xi = rng.normal(size=6)
        w = xi[3:]
        xi[3:] = w / np.linalg.norm(w) * angle
        ad = xi_to_ad(xi)
        series, term = np.zeros((6, 6)), np.eye(6)
        for n in range(1, 60):
            series += term / n
            term = term @ ad / n
        # sum_n ad^n / (n + 1)!: term is ad^(n-1) / (n-1)! before /n
        assert np.max(np.abs(se3.left_jacobian(xi) - series)) < 3e-14

    @pytest.mark.parametrize("xi", [
        [0.3, -0.2, 0.5, 0.4, -0.7, 0.2],
        [0.02, 0.01, -0.015, 0.004, 0.003, -0.002],
        [1.0, 0.0, 0.0, 0.01, 0.0, 0.0],
        # its rotation steps of 1e-6 land on log's SMALL_ANGLE
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    def test_first_order_left_perturbation(self, xi):
        # exp(xi + d) exp(xi)^-1 = exp(J d) to first order in d
        xi = np.array(xi)
        J = se3.left_jacobian(xi)
        h = 1e-6
        for j, d in enumerate(np.eye(6) * h):
            plus = se3.log(se3.exp(xi + d) @ se3.inverse(se3.exp(xi)))
            minus = se3.log(se3.exp(xi - d) @ se3.inverse(se3.exp(xi)))
            assert np.max(np.abs((plus - minus) / (2 * h) - J[:, j])) < 1e-8

    def test_identity_at_zero(self):
        assert np.array_equal(se3.left_jacobian(np.zeros(6)), np.eye(6))


class TestApplyComposeInverse:
    def test_apply_identity(self):
        p = np.array([0.2, -0.1, 1.0, 0.5])
        assert np.array_equal(se3.apply(np.eye(4), p), p)

    def test_apply_translation(self):
        T = se3.exp([0.1, 0, 0, 0, 0, 0])
        out = se3.apply(T, [0.0, 0.0, 1.0, 1.0])
        assert np.allclose(out, [0.1, 0.0, 1.0, 1.0], atol=1e-15)

    def test_apply_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            T = se3.exp(rng.uniform(-0.3, 0.3, 6))
            p = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                          1.0, rng.uniform(0.2, 2.0)])
            y = T @ p
            expected = y / y[2]
            assert np.max(np.abs(se3.apply(T, p) - expected)) < 1e-12

    def test_apply_cheirality(self):
        T = se3.exp([0, 0, 0, 0, np.pi / 2 - 1e-3, 0])
        # rotate a far-off-axis point behind the camera
        with pytest.raises(CheiralityError):
            se3.apply(T, [50.0, 0.0, 1.0, 1.0])

    def test_compose_with_identity(self):
        T = se3.exp([0.1, 0.2, -0.1, 0.05, 0.02, -0.04])
        assert np.array_equal(se3.compose(np.eye(4), T), T)

    def test_inverse_identity(self):
        assert np.array_equal(se3.inverse(np.eye(4)), np.eye(4))

    def test_inverse_of_stack_matches_rows(self):
        rng = np.random.default_rng(10)
        T = se3.exp(rng.normal(0, 1, (200, 6)))
        stack = se3.inverse(T)
        assert np.array_equal(stack, np.array([se3.inverse(t) for t in T]))

    def test_compose_inverse_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            T = se3.exp(rng.uniform(-1, 1, 6))
            assert np.max(np.abs(se3.compose(T, se3.inverse(T)) - np.eye(4))) < 1e-10

    def test_exp_negation(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            xi = rng.uniform(-1, 1, 6)
            prod = se3.exp(xi) @ se3.exp(-xi)
            assert np.max(np.abs(prod - np.eye(4))) < 1e-10

    def test_apply_linear_before_renormalisation(self):
        rng = np.random.default_rng(17)
        T = se3.exp(rng.uniform(-0.2, 0.2, 6))
        p1 = np.array([0.1, 0.2, 1.0, 0.5])
        p2 = np.array([-0.3, 0.1, 1.0, 1.5])
        assert np.allclose(T @ (2 * p1 + 3 * p2), 2 * (T @ p1) + 3 * (T @ p2),
                           rtol=0, atol=1e-12)


# Reference copies of the scalar exp, the stacked exp, both inverse bodies,
# hat and apply as they were written before exp and inverse became one body
# over `...` indexing. The program must match them byte for byte, signed
# zeros included; only apply on a NaN depth differs (it now raises).

def ref_hat(w):
    """3-vector -> 3x3 skew-symmetric matrix."""
    wx, wy, wz = w
    return np.array([[0.0, -wz, wy],
                     [wz, 0.0, -wx],
                     [-wy, wx, 0.0]])


def ref_exp(xi):
    v = xi[:3]
    w = xi[3:]
    theta = np.linalg.norm(w)
    K = ref_hat(w)
    K2 = K @ K
    A, B, C = se3._coefficients(theta)
    R = np.eye(3) + A * K + B * K2
    V = np.eye(3) + B * K + C * K2
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = V @ v
    return T


def ref_exp_stack(xi):
    """exp over an (N, 6) stack, with the scalar path's formulas per row."""
    n = len(xi)
    v = xi[:, :3]
    w = xi[:, 3:]
    theta = se3.row_norms(w)
    K = np.zeros((n, 3, 3))
    K[:, 0, 1], K[:, 0, 2], K[:, 1, 2] = -w[:, 2], w[:, 1], -w[:, 0]
    K[:, 1, 0], K[:, 2, 0], K[:, 2, 1] = w[:, 2], -w[:, 1], w[:, 0]
    K2 = K @ K
    A, B, C = se3._coefficients(theta)
    A, B, C = A[:, None, None], B[:, None, None], C[:, None, None]
    T = np.zeros((n, 4, 4))
    T[:, :3, :3] = np.eye(3) + A * K + B * K2
    V = np.eye(3) + B * K + C * K2
    T[:, :3, 3] = (V @ v[:, :, None])[:, :, 0]
    T[:, 3, 3] = 1.0
    return T


def ref_inverse(T):
    T = np.asarray(T, dtype=float)
    if T.ndim == 3:
        Rt = np.swapaxes(T[:, :3, :3], 1, 2)
        out = np.zeros_like(T)
        out[:, :3, :3] = Rt
        out[:, :3, 3] = (-Rt @ T[:, :3, 3, None])[:, :, 0]
        out[:, 3, 3] = 1.0
        return out
    R = T[:3, :3]
    t = T[:3, 3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ t
    return out


def ref_apply(T, p):
    p = np.asarray(p, dtype=float)
    y = np.asarray(T, dtype=float) @ p
    if y[2] <= camera.CHEIRALITY_EPS:
        raise CheiralityError("point maps behind or onto the camera plane")
    return y / y[2]


def edge_twists(seed):
    """Twists that reach every branch: both forms of the coefficients and
    the angles around their switch, zero rows, pure translations, -0.0
    components, angles near pi and twists of norm up to about 10, shuffled
    together."""
    rng = np.random.default_rng(seed)
    translation = rng.normal(0, 1, (60, 6))
    translation[:30, 3:] = 0.0
    translation[30:, 3:] = -0.0
    signed = rng.normal(0, 0.3, (200, 6))
    signed[rng.random((200, 6)) < 0.3] = -0.0
    axis = rng.normal(size=(100, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    near_pi = np.hstack([rng.normal(size=(100, 3)),
                         axis * (np.pi - 10.0 ** rng.uniform(-12, -1, (100, 1)))])
    large = rng.normal(size=(100, 6))
    large *= rng.uniform(0, 10, (100, 1)) / np.linalg.norm(large, axis=1,
                                                           keepdims=True)
    switch = se3._SERIES_ANGLE
    boundary = np.zeros((6, 6))
    boundary[:, 3] = [switch, -switch, np.nextafter(switch, 0),
                      np.nextafter(switch, 2), 5e-324, 0.0]
    xi = np.concatenate([rng.normal(0, 0.05, (300, 6)),
                         rng.normal(0, 1.0, (200, 6)),
                         rng.normal(0, 1e-8, (100, 6)), np.zeros((2, 6)),
                         -np.zeros((2, 6)), translation, signed, near_pi,
                         large, boundary])
    rng.shuffle(xi)
    return xi


class TestMatchesReferenceBytes:
    def test_exp_one_row(self):
        xi = edge_twists(40)
        # the rows of a column-major copy are strided views, which BLAS
        # would read with their stride
        for x, strided in zip(xi, np.asfortranarray(xi)):
            want = ref_exp(x).tobytes()
            assert se3.exp(x).tobytes() == want, x
            assert se3.exp(strided).tobytes() == want, x
        # rotations whose products underflow to -0.0, which the identity's
        # +0.0 entries turn into +0.0
        tiny = (0.0, -0.0, 0.3, -5e-324)
        for w in itertools.product(tiny, repeat=3):
            for v in ((1.0, -2.0, 0.5), (0.0, -0.0, 0.0)):
                x = np.array(v + w)
                assert se3.exp(x).tobytes() == ref_exp(x).tobytes(), x

    def test_twist_coefficients_match_arrays(self):
        # a float angle, with math.sin, against the same angle in an array:
        # both sides of the switch and up to pi, then angles exp accepts
        rng = np.random.default_rng(45)
        switch = se3._SERIES_ANGLE
        theta = np.concatenate([
            TestCoefficients.ANGLES, [1e3, se3.MAX_ANGLE],
            np.geomspace(1e-12, np.pi, 20000), rng.uniform(0, np.pi, 20000),
            switch * rng.uniform(0.5, 2.0, 2000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = np.array(se3._coefficients(theta)).T
        got = np.array([se3._coefficients(t, math.sin) for t in theta.tolist()])
        assert got.tobytes() == want.tobytes()

    def test_exp_stack(self):
        xi = edge_twists(41)
        assert se3.exp(xi).tobytes() == ref_exp_stack(xi).tobytes()
        # stacks of one branch only, of one row and of none
        for part in (xi[:1], xi[:5], np.zeros((3, 6)),
                     np.full((3, 6), 1e-9), np.zeros((0, 6))):
            assert se3.exp(part).tobytes() == ref_exp_stack(part).tobytes()

    def test_inverse_both_forms(self):
        T = ref_exp_stack(edge_twists(42))
        assert se3.inverse(T).tobytes() == ref_inverse(T).tobytes()
        for t in T:
            assert se3.inverse(t).tobytes() == ref_inverse(t).tobytes()

    def test_hat_one_vector_and_stack(self):
        w = edge_twists(43)[:, 3:]
        for row in w:
            assert se3.hat(row).tobytes() == ref_hat(row).tobytes()
        assert se3.hat(w).tobytes() == np.array(
            [ref_hat(row) for row in w]).tobytes()

    def test_apply(self):
        rng = np.random.default_rng(44)
        T = ref_exp_stack(edge_twists(44))
        points = np.column_stack([rng.uniform(-1, 1, len(T)),
                                  rng.uniform(-1, 1, len(T)),
                                  np.ones(len(T)),
                                  rng.uniform(0.01, 3.0, len(T))])
        points[::40, 3] = -0.0
        # on the cheirality bound exactly, just above it, and behind
        cases = list(zip(T, points)) + [
            (np.eye(4), [0.1, 0.2, camera.CHEIRALITY_EPS, 1.0]),
            (np.eye(4), [0.1, 0.2, np.nextafter(camera.CHEIRALITY_EPS, 1), 1.0]),
            (np.eye(4), [0.1, 0.2, -0.0, 1.0]),
            (np.eye(4), [0.1, 0.2, -1.0, 1.0])]
        behind = 0
        for t, p in cases:
            try:
                want = ref_apply(t, p).tobytes()
            except CheiralityError:
                behind += 1
                with pytest.raises(CheiralityError):
                    se3.apply(t, p)
            else:
                assert se3.apply(t, p).tobytes() == want
        assert 3 <= behind < len(cases) / 2

    def test_apply_nan_depth_is_behind(self):
        # the reference returned NaN here; divide calls a NaN depth behind
        with pytest.raises(CheiralityError):
            se3.apply(np.eye(4), [0.1, 0.2, 1.0, np.nan])
        with pytest.raises(CheiralityError):
            se3.apply(se3.exp([0, 0, 0, 0, 0, 0.1]), [0.1, 0.2, np.nan, 1.0])
