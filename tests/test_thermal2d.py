import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import solve_ivp

from campc.condenser import KroneckerOperator, condense
from campc.thermal2d import (
    GaussianSpec,
    ThermalConfig,
    build_thermal_benchmark,
    gaussian_field,
    grid_coordinates,
    reference,
    reference_window,
    sampled_model,
    second_difference,
)


# The dense continuous model and its block exponential: the reference
# that the eigenbasis build (`sampled_model`) is compared against.
def build_laplacian(cfg: ThermalConfig) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-time (A_c, B_c) of the semi-discretized PDE.

    A_c = alpha (D1 (x) I + I (x) D1) + sign * beta * I, with D1 from
    `thermal2d.second_difference`.
    """
    n = cfg.n
    if cfg.alpha != 0.0:
        D1 = second_difference(cfg)
        eye = np.eye(n)
        A_c = cfg.alpha * (np.kron(D1, eye) + np.kron(eye, D1))
    else:
        A_c = np.zeros((n * n, n * n))
    A_c = A_c + cfg.reaction_sign * cfg.beta * np.eye(n * n)
    B_c = np.column_stack([gaussian_field(n, spec) for spec in cfg.loads])
    return A_c, B_c


def discretize_zoh(A_c: np.ndarray, B_c: np.ndarray,
                   dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact sampling under piecewise-constant inputs.

    Computed jointly as the exponential of the block matrix
    [[A_c, B_c], [0, 0]] * dt.
    """
    A_c = np.asarray(A_c, dtype=float)
    B_c = np.asarray(B_c, dtype=float)
    n, m = A_c.shape[0], B_c.shape[1]
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = A_c * dt
    blk[:n, n:] = B_c * dt
    E = sla.expm(blk)
    if not np.isfinite(E).all():
        raise FloatingPointError("matrix exponential did not converge")
    return E[:n, :n], E[:n, n:]


class TestGaussianField:
    def test_peak_at_center(self):
        spec = GaussianSpec(center=(0.5, 0.5), width=0.2, peak=3.0)
        field = gaussian_field(5, spec)
        # node (2, 2) of a 5x5 grid sits exactly at (0.5, 0.5)
        assert field[2 * 5 + 2] == pytest.approx(3.0)
        assert field.argmax() == 2 * 5 + 2

    def test_flat_when_floor_equals_peak(self):
        spec = GaussianSpec(width=0.3, peak=2.0, floor=2.0)
        assert np.allclose(gaussian_field(4, spec), 2.0)

    def test_value_at_one_width(self):
        # distance w from the center: floor + (peak - floor) e^{-1/2}
        spec = GaussianSpec(center=(0.0, 0.0), width=0.25, peak=4.0,
                            floor=1.0)
        field = gaussian_field(5, spec)
        want = 1.0 + 3.0 * np.exp(-0.5)
        assert field[1 * 5 + 0] == pytest.approx(want)  # node (0.25, 0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            GaussianSpec(width=0.0)

    @pytest.mark.parametrize("center", [(0.5,), (0.1, 0.2, 0.3),
                                        (np.nan, 0.5), (0.5, np.inf)])
    def test_rejects_center_not_two_finite_coordinates(self, center):
        # a one-entry center would broadcast to both axes
        with pytest.raises(ValueError, match="center"):
            GaussianSpec(center=center)

    def test_grid_coordinates_corners(self):
        r = grid_coordinates(3)
        assert r.shape == (9, 2)
        assert np.array_equal(r[0], [0.0, 0.0])
        assert np.array_equal(r[-1], [1.0, 1.0])
        assert np.array_equal(r[1 * 3 + 2], [0.5, 1.0])


class TestLaplacian:
    def test_interior_five_point_stencil(self):
        cfg = ThermalConfig(n=3, alpha=1.0, beta=0.0, output_block=1)
        A_c, _ = build_laplacian(cfg)
        h2 = cfg.h ** 2
        center = 1 * 3 + 1     # the single interior node of a 3x3 grid
        assert A_c[center, center] == pytest.approx(-4.0 / h2)
        for nb in (center - 1, center + 1, center - 3, center + 3):
            assert A_c[center, nb] == pytest.approx(1.0 / h2)

    def test_reaction_only(self):
        cfg = ThermalConfig(n=3, alpha=0.0, beta=0.5, reaction_sign=1.0,
                            output_block=1)
        A_c, _ = build_laplacian(cfg)
        assert np.array_equal(A_c, 0.5 * np.eye(9))

    def test_reaction_sign_switch(self):
        cfg = ThermalConfig(n=3, alpha=0.0, beta=0.5,
                            output_block=1)  # damping default
        A_c, _ = build_laplacian(cfg)
        assert np.array_equal(A_c, -0.5 * np.eye(9))

    def test_boundary_row_ghost_node(self):
        cfg = ThermalConfig(n=4, alpha=2.0, beta=0.0, boundary_sign=-1.0,
                            output_block=1)
        A_c, _ = build_laplacian(cfg)
        h, alpha, s = cfg.h, cfg.alpha, cfg.boundary_sign
        # corner node (0, 0): both 1-d operators contribute their
        # boundary diagonal; the ghost-node term enters once per axis
        # and the 1/alpha in it cancels against the leading alpha
        axis = alpha * (-2.0 / h ** 2) + 2.0 * s / h
        assert A_c[0, 0] == pytest.approx(2.0 * axis)
        assert A_c[0, 1] == pytest.approx(alpha * 2.0 / h ** 2)

    def test_mirror_symmetry(self):
        cfg = ThermalConfig(n=6)
        A_c, B_c = build_laplacian(cfg)
        n = cfg.n
        P = np.kron(np.eye(n)[::-1], np.eye(n))  # flip x -> 1 - x
        assert np.abs(P @ A_c @ P - A_c).max() <= 1e-10
        # the three heater footprints mirror onto each other
        assert np.abs(P @ B_c - B_c[:, ::-1]).max() <= 1e-12

    def test_dissipative_with_damping_defaults(self):
        cfg = ThermalConfig(n=8)
        A_c, _ = build_laplacian(cfg)
        eig = np.linalg.eigvals(A_c)
        assert eig.real.max() < 0.0


class TestDiscretizeZoh:
    def test_pure_integrator(self):
        A, B = discretize_zoh(np.zeros((2, 2)), np.eye(2), 1.0)
        assert np.allclose(A, np.eye(2))
        assert np.allclose(B, np.eye(2))

    def test_scalar_closed_form(self):
        a, b, dt = -0.7, 2.0, 0.5
        A, B = discretize_zoh([[a]], [[b]], dt)
        assert A[0, 0] == pytest.approx(np.exp(a * dt))
        assert B[0, 0] == pytest.approx((np.exp(a * dt) - 1.0) * b / a)

    def test_matches_ode_integration(self):
        rng = np.random.default_rng(40)
        A_c = rng.normal(size=(4, 4)) - 2.0 * np.eye(4)
        B_c = rng.normal(size=(4, 2))
        dt = 0.8
        A, B = discretize_zoh(A_c, B_c, dt)
        x0 = rng.normal(size=4)
        u = rng.normal(size=2)
        sol = solve_ivp(lambda t, x: A_c @ x + B_c @ u, (0.0, dt), x0,
                        rtol=1e-11, atol=1e-12)
        want = sol.y[:, -1]
        got = A @ x0 + B @ u
        assert np.abs(got - want).max() <= 1e-8 * (1 + np.abs(want).max())


class TestBenchmarkAssembly:
    def test_dimensions(self, thermal_setup):
        model, prob, cfg = thermal_setup
        assert model.n_x == 400
        assert model.n_u == 3
        assert model.n_y == 25
        cqp = condense(model, prob)
        assert cqp.n_v == 15
        assert cqp.n_c == 2030
        assert cqp.n_z == 528

    def test_output_block_is_centered(self, thermal_setup):
        _, _, cfg = thermal_setup
        nodes = np.asarray(cfg.output_nodes)
        rows, cols = nodes // cfg.n, nodes % cfg.n
        assert sorted(set(rows)) == list(range(8, 13))
        assert sorted(set(cols)) == list(range(8, 13))

    def test_state_bound_is_gaussian_profile(self, thermal_setup):
        model, prob, cfg = thermal_setup
        blk = prob.state_constraints
        assert np.array_equal(blk.M.toarray(), np.eye(400))
        assert np.allclose(blk.g, gaussian_field(cfg.n, cfg.bound))
        assert blk.g.max() <= cfg.bound.peak

    def test_input_box_rows(self, thermal_setup):
        _, prob, _ = thermal_setup
        blk = prob.input_constraints
        assert blk.M.shape == (6, 3)
        u = np.array([0.2, -0.1, 1.3])
        resid = blk.M @ u - blk.g
        # feasible iff 0 <= u <= 1, violated rows isolate the culprits
        assert np.array_equal(resid > 0, [False, False, False, True,
                                          True, False])

    def test_discrete_model_is_stable(self, thermal_setup):
        model, _, _ = thermal_setup
        assert np.abs(np.linalg.eigvals(model.A)).max() < 1.0


class TestSampledStateOperator:
    """The eigenbasis (A, B) against the block exponential's."""

    @pytest.mark.parametrize("changes, tol", [
        ({}, 1e-13),
        ({"n": 3, "output_block": 1}, 1e-13),
        ({"alpha": 0.0}, 1e-13),
        ({"reaction_sign": 1.0}, 1e-13),
        # an unstable boundary: |A| reaches 7e32, and the 403x403 block
        # exponential is itself the less accurate side (see
        # test_matches_high_precision_reference)
        ({"boundary_sign": 1.0}, 1e-10),
        ({"dt": 0.5}, 1e-13),
    ])
    def test_matches_block_exponential(self, changes, tol):
        cfg = ThermalConfig(**changes)
        model, _, _ = build_thermal_benchmark(cfg)
        A = model.A
        assert isinstance(A, KroneckerOperator)
        assert A.P.shape == A.Q.shape == (cfg.n, cfg.n)
        want, B = discretize_zoh(*build_laplacian(cfg), cfg.dt)
        scale = np.abs(want).max()
        assert np.abs(np.asarray(A) - want).max() <= tol * scale
        assert np.abs(model.B - B).max() <= tol * np.abs(B).max()
        x = np.random.default_rng(41).normal(size=cfg.n_x)
        assert np.abs(A @ x - want @ x).max() <= tol * np.abs(
            want @ x).max()

    @pytest.mark.parametrize("n", [5, 8])
    def test_matches_high_precision_reference(self, n):
        """A and B with boundary_sign +1 against 40-digit values.

        The reference takes E1 = expm(alpha dt D1) by mpmath's Taylor
        series, A = kron(e^(sign beta dt) E1, E1), and B = A_c^-1 (A - I)
        B_c by a 40-digit LU solve (A_c is invertible here).  The block
        exponential is off by 8.6e-13 (n = 5) and 1.4e-12 (n = 8) in B,
        and by 2.0e-12 and 1.4e-12 in A.
        """
        mpmath = pytest.importorskip("mpmath")
        cfg = ThermalConfig(n=n, boundary_sign=1.0, output_block=1)
        A_c, B_c = build_laplacian(cfg)
        with mpmath.workdps(40):
            E1 = np.array(mpmath.expm(mpmath.matrix(
                cfg.alpha * cfg.dt * second_difference(cfg))).tolist())
            A = np.kron(mpmath.exp(cfg.reaction_sign * cfg.beta * cfg.dt)
                        * E1, E1)
            rhs = (A - np.eye(cfg.n_x)) @ B_c
            A_c = mpmath.matrix(A_c.tolist())
            B = np.column_stack([
                mpmath.lu_solve(A_c, mpmath.matrix(list(col))).tolist()
                for col in rhs.T]).astype(float)
            A = A.astype(float)
        got_A, got_B = sampled_model(cfg)
        assert np.abs(np.asarray(got_A) - A).max() <= 5e-13 * np.abs(A).max()
        assert np.abs(got_B - B).max() <= 5e-13 * np.abs(B).max()

    def test_no_diffusion_gives_identity_factors(self):
        cfg = ThermalConfig(n=4, alpha=0.0, output_block=1)
        A, _ = sampled_model(cfg)
        assert np.array_equal(A.Q, np.eye(4))
        assert np.array_equal(A.P, np.exp(-cfg.beta * cfg.dt) * np.eye(4))

    @pytest.mark.parametrize("sign, beta", [(-1.0, 0.02), (1.0, 0.02),
                                            (1.0, 0.0)])
    def test_no_diffusion_input_map_closed_form(self, sign, beta):
        """alpha = 0: B = dt phi(sign beta dt) B_c, phi(x) = expm1(x)/x,
        phi(0) = 1."""
        cfg = ThermalConfig(n=4, alpha=0.0, beta=beta, reaction_sign=sign,
                            dt=0.5, output_block=1)
        _, B_c = build_laplacian(cfg)
        x = sign * beta * cfg.dt
        phi = np.expm1(x) / x if x else 1.0
        _, B = sampled_model(cfg)
        assert np.abs(B - cfg.dt * phi * B_c).max() <= 1e-15 * np.abs(
            B_c).max()


class TestReference:
    def test_ramp_values(self):
        cfg = ThermalConfig()
        assert np.array_equal(reference(cfg, 0), np.zeros(25))
        assert np.allclose(reference(cfg, 15), np.full(25, 5.0))
        assert np.allclose(reference(cfg, 30), np.full(25, 10.0))
        assert np.allclose(reference(cfg, 45), np.full(25, 10.0))

    def test_window_is_shifted(self):
        cfg = ThermalConfig()
        win = reference_window(cfg, 10)
        assert len(win) == cfg.horizon
        for i, ref in enumerate(win):
            assert np.allclose(ref, reference(cfg, 11 + i))


class TestConfigValidation:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            ThermalConfig(n=2)

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_rejects_nonpositive_sample_time(self, dt):
        with pytest.raises(ValueError, match="^sample time must be positive"):
            ThermalConfig(dt=dt)

    def test_rejects_oversized_output_block(self):
        with pytest.raises(ValueError):
            ThermalConfig(n=4, output_block=5)


    # a float count used to end in a TypeError (n, output_block) or be
    # accepted (ref_ramp_steps, and a bool horizon)
    @pytest.mark.parametrize("name, value", [
        ("n", 6.5), ("output_block", 2.5), ("ref_ramp_steps", 2.5),
        ("horizon", True)])
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ThermalConfig(**{name: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = ThermalConfig(n=np.int64(6), output_block=np.int32(2))
        assert cfg.n_x == 36
        assert len(cfg.output_nodes) == 4
