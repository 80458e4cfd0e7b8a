"""Optimizer tests: convergence on quadratics, trust region, restarts."""

import numpy as np
import pytest

from repro.optim import NesterovOptimizer


def quad_grad(target, scale=1.0):
    return lambda x: scale * (x - target)


class TestNesterov:
    def test_converges_on_quadratic(self):
        target = np.array([3.0, -2.0, 7.5])
        opt = NesterovOptimizer(np.zeros(3), quad_grad(target), initial_step=0.1)
        for _ in range(200):
            opt.do_step()
        assert np.allclose(opt.u, target, atol=1e-6)

    def test_secant_step_adapts_to_curvature(self):
        # gradient scale 10 -> inverse Lipschitz estimate ~0.1
        opt = NesterovOptimizer(np.zeros(2), quad_grad(np.ones(2), 10.0),
                                initial_step=1e-3)
        for _ in range(5):
            opt.do_step()
        assert opt.step == pytest.approx(0.1, rel=0.2)

    def test_trust_region_caps_displacement(self):
        big_grad = lambda x: np.full_like(x, 1e6)
        opt = NesterovOptimizer(np.zeros(4), big_grad, initial_step=1.0,
                                max_move=0.5)
        u0 = opt.u.copy()
        opt.do_step()
        assert np.abs(opt.u - u0).max() <= 0.5 + 1e-9

    def test_min_max_step_clamps(self):
        opt = NesterovOptimizer(np.zeros(1), quad_grad(np.ones(1)),
                                initial_step=1.0, max_step=1e-3)
        for _ in range(3):
            opt.do_step()
        assert opt.step <= 1e-3 + 1e-12

    def test_momentum_coefficient_recursion(self):
        opt = NesterovOptimizer(np.zeros(1), quad_grad(np.zeros(1)))
        a0 = opt.a
        opt.do_step()
        assert opt.a == pytest.approx((1 + np.sqrt(4 * a0**2 + 1)) / 2)

    def test_reset_momentum(self):
        opt = NesterovOptimizer(np.zeros(2), quad_grad(np.ones(2)), initial_step=0.1)
        for _ in range(10):
            opt.do_step()
        opt.reset_momentum()
        assert opt.a == 1.0
        assert np.allclose(opt.v, opt.u)
        # still converges after reset
        for _ in range(200):
            opt.do_step()
        assert np.allclose(opt.u, 1.0, atol=1e-6)

    def test_zero_gradient_is_stationary(self):
        opt = NesterovOptimizer(np.ones(3), lambda x: np.zeros_like(x))
        opt.do_step()
        assert np.allclose(opt.u, 1.0)

    def test_diagnostics(self):
        opt = NesterovOptimizer(np.zeros(2), quad_grad(np.ones(2)), initial_step=0.1)
        info = opt.do_step()
        assert info["iteration"] == 1
        assert info["grad_norm"] == pytest.approx(np.sqrt(2))
