import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from oracles.ot_ref import (
    ConvergenceError,
    DiscreteMeasure,
    entropic_primal_value,
    exact_ot_uniform,
    sinkhorn_distance,
    squared_cost,
)


def _rand_measure(rng, n, dim=2, uniform=True, scale=2.0):
    atoms = rng.normal(scale=scale, size=(n, dim))
    if uniform:
        return DiscreteMeasure.uniform(atoms)
    w = rng.dirichlet(np.ones(n))
    return DiscreteMeasure(atoms, w)


class TestDiscreteMeasure:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.zeros((2, 1)), np.array([0.6, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.zeros((2, 1)), np.array([1.5, -0.5]))

    def test_atom_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.zeros((3, 1)), np.array([0.5, 0.5]))

    def test_1d_atoms_promoted_to_column(self):
        m = DiscreteMeasure.uniform(np.array([0.0, 1.0, 2.0]))
        assert m.atoms.shape == (3, 1)


class TestSinkhorn:
    def test_identical_point_masses(self):
        P = DiscreteMeasure(np.array([[1.0, 2.0]]), np.array([1.0]))
        value, coupling = sinkhorn_distance(P, P, epsilon=0.5)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(coupling, [[1.0]])

    def test_two_point_masses(self):
        a, b = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
        P = DiscreteMeasure(a, np.array([1.0]))
        Q = DiscreteMeasure(b, np.array([1.0]))
        value, coupling = sinkhorn_distance(P, Q, epsilon=0.1)
        assert value == pytest.approx(25.0, rel=1e-12)  # squared distance
        np.testing.assert_allclose(coupling, [[1.0]])

    @pytest.mark.parametrize("epsilon", [0.1, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_2x2_uniform_matches_scalar_brute_force(self, epsilon, seed):
        rng = np.random.default_rng(seed)
        P = _rand_measure(rng, 2)
        Q = _rand_measure(rng, 2)
        C = squared_cost(P.atoms, Q.atoms)

        # uniform 2x2 couplings form a segment: [[t, .5-t], [.5-t, t]], t in [0, .5]
        def objective(t):
            gamma = np.array([[t, 0.5 - t], [0.5 - t, t]])
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.where(gamma > 0, np.log(gamma / 0.25), 0.0)
            return (gamma * C).sum() + epsilon * (gamma * logs).sum()

        grid = np.linspace(0.0, 0.5, 2001)
        t0 = grid[np.argmin([objective(t) for t in grid])]
        lo, hi = max(0.0, t0 - 0.001), min(0.5, t0 + 0.001)
        res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        want = min(res.fun, objective(t0))

        value, coupling = sinkhorn_distance(P, Q, epsilon=epsilon, tol=1e-12)
        assert value == pytest.approx(want, abs=1e-6)
        np.testing.assert_allclose(coupling.sum(axis=1), P.weights, atol=1e-9)
        np.testing.assert_allclose(coupling.sum(axis=0), Q.weights, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_marginals_within_tol(self, seed):
        rng = np.random.default_rng(seed)
        P = _rand_measure(rng, 5, uniform=False)
        Q = _rand_measure(rng, 3, uniform=False)
        _, coupling = sinkhorn_distance(P, Q, epsilon=0.2, tol=1e-10)
        np.testing.assert_allclose(coupling.sum(axis=1), P.weights, atol=1e-10)
        np.testing.assert_allclose(coupling.sum(axis=0), Q.weights, atol=1e-10)

    def test_value_consistent_with_direct_primal_evaluation(self):
        rng = np.random.default_rng(5)
        P = _rand_measure(rng, 4, uniform=False)
        Q = _rand_measure(rng, 6, uniform=False)
        value, coupling = sinkhorn_distance(P, Q, epsilon=0.3, tol=1e-12)
        assert value == pytest.approx(
            entropic_primal_value(coupling, P, Q, 0.3), rel=1e-9
        )

    def test_beats_independent_product_coupling(self):
        # the product P x Q is feasible with zero KL, so the optimum can't lose to it
        rng = np.random.default_rng(6)
        P = _rand_measure(rng, 4)
        Q = _rand_measure(rng, 4)
        value, _ = sinkhorn_distance(P, Q, epsilon=0.5)
        product = np.outer(P.weights, Q.weights)
        assert value <= entropic_primal_value(product, P, Q, 0.5) + 1e-9

    def test_nonpositive_epsilon_rejected(self):
        P = DiscreteMeasure.uniform(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sinkhorn_distance(P, P, epsilon=0.0)

    def test_nonconvergence_raises_with_residual(self):
        rng = np.random.default_rng(7)
        P = _rand_measure(rng, 4, uniform=False, scale=5.0)
        Q = _rand_measure(rng, 5, uniform=False, scale=5.0)
        with pytest.raises(ConvergenceError) as exc:
            sinkhorn_distance(P, Q, epsilon=0.05, max_iter=1, tol=1e-14)
        assert exc.value.residual > 1e-14

    def test_tiny_epsilon_stays_finite(self):
        rng = np.random.default_rng(8)
        P = _rand_measure(rng, 4, scale=4.0)
        Q = _rand_measure(rng, 4, scale=4.0)
        value, coupling = sinkhorn_distance(P, Q, epsilon=0.01, max_iter=200_000)
        assert np.isfinite(value)
        assert np.isfinite(coupling).all()


class TestExactOt:
    def test_identity(self):
        rng = np.random.default_rng(9)
        P = _rand_measure(rng, 4)
        assert exact_ot_uniform(P, P) == pytest.approx(0.0, abs=1e-15)

    def test_single_atom_is_squared_distance(self):
        P = DiscreteMeasure.uniform(np.array([[1.0, 1.0]]))
        Q = DiscreteMeasure.uniform(np.array([[4.0, 5.0]]))
        assert exact_ot_uniform(P, Q) == pytest.approx(25.0, rel=1e-14)

    def test_matches_scipy_assignment(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(10)
        for n in (2, 5, 8):
            P = _rand_measure(rng, n, dim=3)
            Q = _rand_measure(rng, n, dim=3)
            C = squared_cost(P.atoms, Q.atoms)
            r, c = linear_sum_assignment(C)
            assert exact_ot_uniform(P, Q) == pytest.approx(
                C[r, c].sum() / n, rel=1e-12
            )

    def test_preconditions(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="equal"):
            exact_ot_uniform(_rand_measure(rng, 3), _rand_measure(rng, 4))
        with pytest.raises(ValueError, match="n <= 8"):
            exact_ot_uniform(_rand_measure(rng, 9), _rand_measure(rng, 9))
        P = _rand_measure(rng, 3)
        skew = DiscreteMeasure(P.atoms, np.array([0.5, 0.3, 0.2]))
        with pytest.raises(ValueError, match="uniform"):
            exact_ot_uniform(P, skew)

    @pytest.mark.parametrize("seed", range(3))
    def test_epsilon_annealing_decreases_toward_exact(self, seed):
        rng = np.random.default_rng(100 + seed)
        P = _rand_measure(rng, 3, scale=3.0)
        Q = _rand_measure(rng, 3, scale=3.0)
        exact = exact_ot_uniform(P, Q)
        values = [
            sinkhorn_distance(P, Q, epsilon=eps, tol=1e-8)[0]
            for eps in (1.0, 0.1, 0.01)
        ]
        assert values[0] >= values[1] - 1e-5
        assert values[1] >= values[2] - 1e-5
        # every regularized value dominates the exact one (feasible coupling, KL >= 0)
        assert all(v >= exact - 1e-9 for v in values)
        assert values[2] == pytest.approx(exact, rel=0.02)
