import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ballbot_lab.errors import MassMatrixSingularError, PlantFellOverError
from ballbot_lab.numerics import eigenvalues, zoh_discretize
from ballbot_lab.plant import (DEG, RAD, LinearParams, PhysicalParams, Plant,
                               Sensor, SensorSpec, build_linear_ss, linearize,
                               mix_to_wheels, nonlinear_dynamics)

from oracles import (dot_order_bound, fd_jacobian, mechanical_energy,
                     plain_plant_update, vector_nonlinear_dynamics, vector_rk4_step)


@pytest.fixture
def pp():
    return PhysicalParams.reference()


class TestNonlinearDynamics:
    def test_equilibrium(self, pp):
        assert_allclose(nonlinear_dynamics(pp, np.zeros(4), 0.0), np.zeros(4), atol=0)

    def test_gravity_destabilizes(self, pp):
        frictionless = PhysicalParams(b1=pp.b1, b2=pp.b2, b3=pp.b3,
                                      b4=0.0, b5=0.0, ell=pp.ell)
        for theta in (0.3, -0.3, 1.0, -1.0):
            deriv = nonlinear_dynamics(frictionless, np.array([0, theta, 0, 0.0]), 0.0)
            assert math.copysign(1.0, deriv[3]) == math.copysign(1.0, theta)

    def test_input_channel_matches_hand_inverse(self, pp):
        # at upright, q'' = M0^-1 Btilde tau by the 2x2 adjugate formula
        deriv = nonlinear_dynamics(pp, np.zeros(4), 1.0)
        M0 = pp.mass_matrix(0.0)
        det = M0[0, 0] * M0[1, 1] - M0[0, 1] * M0[1, 0]
        bt = np.array([pp.r / pp.r_w, -pp.r / pp.r_w])
        ydd = (M0[1, 1] * bt[0] - M0[0, 1] * bt[1]) / det
        thdd = (-M0[1, 0] * bt[0] + M0[0, 0] * bt[1]) / det
        assert_allclose(deriv[2], ydd, rtol=1e-12)
        assert_allclose(deriv[3], thdd * RAD, rtol=1e-12)

    def test_singular_mass_matrix_raises(self):
        with pytest.raises(MassMatrixSingularError):
            PhysicalParams(b1=1.0, b2=0.0, b3=1.0, b4=0, b5=0, ell=1.0 / 10.9)


class TestLinearize:
    def test_frictionless_kills_damping_terms(self, pp):
        lp = linearize(PhysicalParams(b1=pp.b1, b2=pp.b2, b3=pp.b3,
                                      b4=0.0, b5=0.0, ell=pp.ell))
        assert lp.p2 == lp.p5 == lp.p7 == lp.p8 == 0.0

    def test_matches_finite_difference_jacobian(self, pp):
        ss = build_linear_ss(linearize(pp))
        J = fd_jacobian(lambda x: nonlinear_dynamics(pp, x, 0.0), np.zeros(4))
        scale = np.max(np.abs(ss.A))
        assert np.max(np.abs(J - ss.A)) / scale < 1e-6
        Bfd = fd_jacobian(lambda u: nonlinear_dynamics(pp, np.zeros(4), u[0]),
                          np.zeros(1))
        assert np.max(np.abs(Bfd - ss.B)) / np.max(np.abs(ss.B)) < 1e-6

    def test_input_column_solves_mass_matrix_system(self, pp):
        # (p3, p6) satisfy M0 [p3; p6_angle-consistent] = Btilde exactly;
        # the tilt row carries the module's degree convention, hence the
        # DEG factor when substituting back (see README units note)
        lp = linearize(pp)
        M0 = pp.mass_matrix(0.0)
        bt = np.array([pp.r / pp.r_w, -pp.r / pp.r_w])
        assert_allclose(M0 @ np.array([lp.p3, lp.p6 * DEG]), bt, rtol=1e-12)

    def test_structural_identity(self, pp):
        # the rigid-body structure forces p1 p8 == p4 p7 in any units
        lp = linearize(pp)
        assert_allclose(lp.p1 * lp.p8, lp.p4 * lp.p7, rtol=1e-10)

    def test_reference_matches_the_table_on_five_constants(self, pp):
        # p1, p3, p4, p6 and p8 within 3 % of the reference table; the
        # damping constants p2, p5 and p7 come out with the opposite sign
        ratio = linearize(pp).as_array() / LinearParams.reference().as_array()
        assert_allclose(ratio[[0, 2, 3, 5, 7]], 1.0, rtol=0, atol=0.03)
        assert np.all(ratio[[1, 4, 6]] < 0.0)

    def test_random_params_roundtrip_against_fd(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            pp = PhysicalParams(
                b1=rng.uniform(5, 30), b2=rng.uniform(-700, -300),
                b3=rng.uniform(-900, -500), b4=rng.uniform(-800, 800),
                b5=rng.uniform(1e4, 2e5), ell=rng.uniform(-150, -80))
            ss = build_linear_ss(linearize(pp))
            J = fd_jacobian(lambda x: nonlinear_dynamics(pp, x, 0.0), np.zeros(4))
            assert np.max(np.abs(J - ss.A)) / max(np.max(np.abs(ss.A)), 1.0) < 1e-6


class TestBuildLinearSS:
    def test_zero_params_template(self):
        ss = build_linear_ss(LinearParams(0, 0, 0, 0, 0, 0, 0, 0))
        expect = np.zeros((4, 4))
        expect[0, 2] = 1.0
        expect[1, 3] = 1.0
        assert_allclose(ss.A, expect, atol=0)
        assert_allclose(ss.B, np.zeros((4, 1)), atol=0)

    def test_reference_values_literal(self):
        lp = LinearParams.reference(r=10.9)
        assert_allclose(lp.p1, 2.725, atol=1e-12)
        assert_allclose(lp.p2, -151.183, atol=1e-12)
        assert_allclose(lp.p5, 214.68 / 10.9, atol=1e-12)
        ss = build_linear_ss(lp)
        assert_allclose(ss.A[2, 1], 2.725)
        assert_allclose(ss.A[2, 2], -151.183)
        assert_allclose(ss.B[3, 0], -0.28)

    def test_first_column_zero(self):
        ss = build_linear_ss(LinearParams.reference())
        assert np.all(ss.A[:, 0] == 0.0)

    def test_open_loop_unstable(self):
        ss = build_linear_ss(LinearParams.reference())
        assert max(e.real for e in eigenvalues(ss.A)) > 0


class TestMixToWheels:
    def test_zero(self):
        assert mix_to_wheels(0, 0, 0) == (0, 0, 0)

    def test_pure_x_command(self):
        u = mix_to_wheels(1.0, 0.0, 0.0)
        c45 = math.cos(math.radians(45))
        assert_allclose(u, (2 / (3 * c45), -1 / (3 * c45), -1 / (3 * c45)), rtol=1e-12)
        assert_allclose(u, (0.9428, -0.4714, -0.4714), atol=5e-5)

    def test_pure_yaw_command(self):
        u = mix_to_wheels(0.0, 0.0, 1.0)
        s45 = math.sin(math.radians(45))
        assert_allclose(u, (1 / (3 * s45),) * 3, rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=3)
        a = 2.5
        u1 = np.array(mix_to_wheels(*v))
        u2 = np.array(mix_to_wheels(*(a * v)))
        assert_allclose(u2, a * u1, rtol=1e-12)

    def test_tilt_commands_sum_to_zero(self):
        for v in ((1.0, 0.0), (0.0, 1.0), (0.3, -2.0)):
            u = mix_to_wheels(v[0], v[1], 0.0)
            assert abs(sum(u)) < 1e-12


class TestSensor:
    def test_identity_without_noise(self):
        s = Sensor(SensorSpec(0, 0, 0, 0.005), np.random.default_rng(0))
        x = np.array([0.123, -1.5, 2.7, -3.1])
        assert_allclose(s.measure(x), x, atol=0)

    def test_position_quantization_floors_toward_zero(self):
        s = Sensor(SensorSpec(0, 0, 0.05, 0.005), np.random.default_rng(0))
        assert s.measure(np.array([0.123, 0, 0, 0]))[0] == pytest.approx(0.10)
        s = Sensor(SensorSpec(0, 0, 0.05, 0.005), np.random.default_rng(0))
        assert s.measure(np.array([-0.123, 0, 0, 0]))[0] == pytest.approx(-0.10)

    def test_seed_determinism(self):
        spec = SensorSpec()
        a = Sensor(spec, np.random.default_rng(99))
        b = Sensor(spec, np.random.default_rng(99))
        x = np.array([1.0, 0.5, -2.0, 3.0])
        for _ in range(50):
            assert_allclose(a.measure(x), b.measure(x), atol=0)

    def test_noise_blocks_are_the_per_call_stream(self):
        # the noise is drawn in blocks and read one draw at a time: exactly
        # the draws of one rng.standard_normal() call per noise term, across
        # block boundaries and with one or two noisy channels
        x = np.array([0.3, -1.2, 2.5, 0.7])
        for spec in (SensorSpec(0.05, 0.2, 0.0, 0.005), SensorSpec(0.0, 0.2, 0.0, 0.005)):
            s = Sensor(spec, np.random.default_rng(5))
            ref = np.random.default_rng(5)
            got, want = [], []
            for _ in range(5000):
                got.append(s.measure(x))
                theta = x[1] + (spec.sigma_theta * ref.standard_normal()
                                if spec.sigma_theta else 0.0)
                want.append([x[0], theta, x[2], x[3] + spec.sigma_thetadot * ref.standard_normal()])
            assert_array_equal(got, want)

    def test_velocity_counter_dithers_unbiased(self):
        # constant slow velocity: individual readings are coarse, but the
        # running average converges on the true value
        spec = SensorSpec(0, 0, 0.05, 0.005)
        s = Sensor(spec, np.random.default_rng(0))
        v_true = 1.7
        readings = []
        for k in range(4000):
            x = np.array([v_true * k * 0.005, 0, v_true, 0])
            readings.append(s.measure(x)[2])
        assert abs(np.mean(readings[1:]) - v_true) < 0.05


class TestPlant:
    def test_linear_step_is_discrete_update(self):
        # A_d x + B_d u on Python floats is the documented left-to-right
        # order bit for bit, and the BLAS product, whose order the kernel
        # picks, within two summation orders' error bound, over many states
        # and inputs, on the truth and on models a fit can return: every
        # constant off by 30 %, and a wrong-signed p1
        truth = LinearParams.reference().as_array()
        for scale in (np.ones(8), np.full(8, 1.3),
                      np.array([-0.2, 0.18, 1, 1, 1, 1, 0.06, 1])):
            plant = Plant(LinearParams.from_array(truth * scale), 0.005)
            d = zoh_discretize(build_linear_ss(plant.model), 0.005)
            AB = np.hstack([d.A_d, d.B_d])
            rng = np.random.default_rng(8)
            for _ in range(1000):
                x = rng.normal(scale=[10.0, 5.0, 20.0, 50.0])
                u = float(rng.normal(scale=100.0))
                xn = plant.step(x.tolist(), u)
                assert isinstance(xn, list)
                assert xn == plain_plant_update(d.A_d, d.B_d, x, u)
                assert np.all(np.abs(xn - (d.A_d @ x + d.B_d[:, 0] * u))
                              <= dot_order_bound(AB, np.append(x, u)))

    @pytest.mark.parametrize("Ts", [0.005, 0.0005])
    def test_rigid_body_step_is_the_vector_step(self, Ts):
        # the float RK4 step of the float dynamics equals the numpy vector
        # step bit for bit, over random states and inputs, at the reference
        # parameters and at perturbed ones (a frictionless set among them)
        ref = PhysicalParams.reference()
        rng = np.random.default_rng(30)
        params = [ref, PhysicalParams(b1=ref.b1, b2=ref.b2, b3=ref.b3,
                                      b4=0.0, b5=0.0, ell=ref.ell)]
        for _ in range(3):
            f = np.exp(rng.uniform(-0.4, 0.4, size=6))
            params.append(PhysicalParams(b1=ref.b1 * f[0], b2=ref.b2 * f[1],
                                         b3=ref.b3 * f[2], b4=ref.b4 * f[3],
                                         b5=ref.b5 * f[4], ell=ref.ell * f[5]))
        for pp in params:
            plant = Plant(pp, Ts)
            xs = rng.uniform(-1.0, 1.0, size=(5000, 4)) * [50.0, 20.0, 50.0, 100.0]
            us = rng.uniform(-1000.0, 1000.0, size=5000)
            got = [plant.step(x, u) for x, u in zip(xs.tolist(), us.tolist())]
            want = [vector_rk4_step(lambda s, uu: vector_nonlinear_dynamics(pp, s, uu),
                                    x, u, Ts) for x, u in zip(xs, us)]
            assert_array_equal(got, want)
            assert plant.t == pytest.approx(5000 * Ts)

    def test_equilibrium_fixed_point(self):
        for model in (LinearParams.reference(), PhysicalParams.reference()):
            plant = Plant(model, 0.01)
            assert_allclose(plant.step(np.zeros(4), 0.0), np.zeros(4), atol=1e-300)

    def test_envelope_abort(self):
        plant = Plant(LinearParams.reference(), 0.005)
        x = np.array([0.0, 30.0, 0.0, 0.0])
        with pytest.raises(PlantFellOverError) as exc:
            for _ in range(2000):
                x = plant.step(x, 0.0)  # open loop falls over
        assert abs(exc.value.state[1]) >= 45.0

    def test_nonlinear_agrees_with_linearization_small_angle(self):
        pp = PhysicalParams.reference()
        nl = Plant(pp, 0.0005)
        d = zoh_discretize(build_linear_ss(linearize(pp)), 0.0005)
        x_nl = np.array([0.0, 0.5, 0.0, 0.0])
        x_l = x_nl.copy()
        for _ in range(400):  # 0.2 s
            x_nl = nl.step(x_nl, 0.0)
            x_l = d.A_d @ x_l
        rel = np.abs(x_nl - x_l) / np.maximum(np.abs(x_l), 1e-9)
        assert np.max(rel) < 0.02

    def test_energy_conserved_without_friction(self):
        base = PhysicalParams.reference()
        pp = PhysicalParams(b1=base.b1, b2=base.b2, b3=base.b3,
                            b4=0.0, b5=0.0, ell=base.ell)
        plant = Plant(pp, 0.001)
        x = np.array([0.0, 5.0, 0.0, 0.0])
        e0 = mechanical_energy(pp, x)
        worst = 0.0
        for _ in range(1000):  # 1 s at 1 ms
            x = plant.step(x, 0.0)
            worst = max(worst, abs(mechanical_energy(pp, x) - e0))
        assert worst / abs(e0) < 1e-3
