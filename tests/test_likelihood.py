"""Likelihood and gradient correctness against independent oracles.

The log-likelihood oracle uses slogdet plus an explicit inverse; gradient
oracles use central finite differences of that oracle. The matrix gradient
with respect to the symmetric G is checked through directional derivatives
along random symmetric directions, which sidesteps any convention question
about off-diagonal duplication.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmixed.errors import DataError, NumericalError, SingularCovarianceError
from gbmixed.likelihood import (
    LOG_2PI,
    batched_quantities,
    chol_with_jitter,
    grad_cov_factor,
    grad_group_cov,
    grad_log_resid_var,
    grad_mean,
    grad_resid_var,
    grad_resid_var_pooled,
    group_gradients,
    group_loglik,
    marginal_covariance,
)

FD_STEP = 1e-5
FD_RTOL = 1e-6


def oracle_loglik(y, mu, Sigma):
    """Independent reference: slogdet and an explicit inverse."""
    s = y - mu
    n = y.shape[0]
    sign, logdet = np.linalg.slogdet(Sigma)
    assert sign > 0
    return -0.5 * (n * LOG_2PI + logdet + s @ np.linalg.inv(Sigma) @ s)


def random_instance(rng, n=None, q=None):
    n = n or int(rng.integers(1, 7))
    q = q or int(rng.integers(1, 4))
    Z = rng.standard_normal((n, q))
    A = rng.standard_normal((q, q))
    G = A @ A.T + 0.5 * np.eye(q)
    r = rng.uniform(0.3, 1.5, size=n)
    y = rng.standard_normal(n)
    mu = rng.standard_normal(n)
    return y, mu, Z, G, r


def rel_err(approx, exact):
    denom = max(abs(exact), 1e-10)
    return abs(approx - exact) / denom


class TestLoglikValues:
    def test_standard_normal_single_observation(self):
        # s = 0, Sigma = 1: the density is the standard normal peak
        Sigma = marginal_covariance(np.ones((1, 1)), np.array([[0.75]]), np.array([0.25]))
        ll = group_loglik(np.array([2.0]), np.array([2.0]), Sigma)
        assert ll == pytest.approx(-0.9189385332046727, abs=1e-14)

    def test_two_observation_hand_value(self):
        # Sigma = [[1, .5], [.5, 1]], s = [1, -1]: quadratic form is exactly 4
        Z = np.ones((2, 1))
        Sigma = marginal_covariance(Z, np.array([[0.5]]), np.array([0.5, 0.5]))
        ll = group_loglik(np.array([1.0, -1.0]), np.zeros(2), Sigma)
        assert ll == pytest.approx(-3.694036030183455, abs=1e-13)

    def test_matches_slogdet_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            y, mu, Z, G, r = random_instance(rng)
            Sigma = marginal_covariance(Z, G, r)
            assert group_loglik(y, mu, Sigma) == pytest.approx(
                oracle_loglik(y, mu, Sigma), rel=1e-10, abs=1e-10
            )

    def test_shape_validation(self):
        with pytest.raises(DataError):
            marginal_covariance(np.ones((3, 1)), np.eye(2), np.ones(3))
        with pytest.raises(DataError):
            marginal_covariance(np.ones((3, 1)), np.eye(1), np.ones(2))
        with pytest.raises(DataError):
            group_loglik(np.ones(3), np.ones(2), np.eye(3))
        with pytest.raises(DataError, match="^Z must be a matrix$"):
            marginal_covariance(np.ones(3), np.eye(1), np.ones(3))
        with pytest.raises(DataError, match="^Sigma must be square matching y$"):
            group_loglik(np.ones(3), np.ones(3), np.eye(2))


class TestMeanGradient:
    def test_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            y, mu, Z, G, r = random_instance(rng)
            Sigma = marginal_covariance(Z, G, r)
            grad = grad_mean(y, mu, Sigma)
            for j in range(len(mu)):
                e = np.zeros_like(mu)
                e[j] = FD_STEP
                fd = (
                    oracle_loglik(y, mu + e, Sigma) - oracle_loglik(y, mu - e, Sigma)
                ) / (2 * FD_STEP)
                assert rel_err(fd, grad[j]) < FD_RTOL

    def test_zero_at_optimum(self):
        rng = np.random.default_rng(22)
        y, mu, Z, G, r = random_instance(rng, n=5)
        Sigma = marginal_covariance(Z, G, r)
        np.testing.assert_allclose(grad_mean(y, y, Sigma), np.zeros(5), atol=1e-14)


class TestCovGradients:
    def test_group_cov_directional_derivative(self):
        # FD along a symmetric direction D equals <dl/dG, D> in Frobenius sense
        rng = np.random.default_rng(31)
        for _ in range(20):
            y, mu, Z, G, r = random_instance(rng)
            q = G.shape[0]
            D = rng.standard_normal((q, q))
            D = 0.5 * (D + D.T)
            Sigma = marginal_covariance(Z, G, r)
            grad = grad_group_cov(y, mu, Z, Sigma)
            directional = float(np.sum(grad * D))
            fd = (
                oracle_loglik(y, mu, marginal_covariance(Z, G + FD_STEP * D, r))
                - oracle_loglik(y, mu, marginal_covariance(Z, G - FD_STEP * D, r))
            ) / (2 * FD_STEP)
            assert rel_err(fd, directional) < FD_RTOL

    def test_cov_factor_entrywise(self):
        # lower-triangle entries of L are free parameters, so entrywise FD applies
        rng = np.random.default_rng(32)
        for _ in range(20):
            y, mu, Z, G, r = random_instance(rng)
            L = np.linalg.cholesky(G)
            grad = grad_cov_factor(y, mu, Z, L, r)
            q = L.shape[0]
            assert np.allclose(np.triu(grad, k=1), 0.0)
            for a in range(q):
                for b in range(a + 1):
                    E = np.zeros((q, q))
                    E[a, b] = FD_STEP
                    lo = L - E
                    hi = L + E
                    fd = (
                        oracle_loglik(y, mu, marginal_covariance(Z, hi @ hi.T, r))
                        - oracle_loglik(y, mu, marginal_covariance(Z, lo @ lo.T, r))
                    ) / (2 * FD_STEP)
                    assert rel_err(fd, grad[a, b]) < FD_RTOL


class TestResidualGradients:
    def test_entrywise_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            y, mu, Z, G, r = random_instance(rng)
            Sigma = marginal_covariance(Z, G, r)
            grad = grad_resid_var(y, mu, Sigma)
            for j in range(len(r)):
                e = np.zeros_like(r)
                e[j] = FD_STEP
                fd = (
                    oracle_loglik(y, mu, marginal_covariance(Z, G, r + e))
                    - oracle_loglik(y, mu, marginal_covariance(Z, G, r - e))
                ) / (2 * FD_STEP)
                assert rel_err(fd, grad[j]) < FD_RTOL

    def test_log_scale_chain_rule(self):
        rng = np.random.default_rng(42)
        y, mu, Z, G, r = random_instance(rng, n=5)
        Sigma = marginal_covariance(Z, G, r)
        np.testing.assert_allclose(
            grad_log_resid_var(y, mu, Sigma, r),
            grad_resid_var(y, mu, Sigma) * r,
            rtol=1e-14,
        )
        # and against FD in log r directly
        logr = np.log(r)
        grad = grad_log_resid_var(y, mu, Sigma, r)
        for j in range(len(r)):
            e = np.zeros_like(logr)
            e[j] = FD_STEP
            fd = (
                oracle_loglik(y, mu, marginal_covariance(Z, G, np.exp(logr + e)))
                - oracle_loglik(y, mu, marginal_covariance(Z, G, np.exp(logr - e)))
            ) / (2 * FD_STEP)
            assert rel_err(fd, grad[j]) < FD_RTOL

    def test_pooled_is_sum_and_matches_shared_fd(self):
        rng = np.random.default_rng(43)
        y, mu, Z, G, r = random_instance(rng, n=6)
        sigma2 = 0.8
        r_shared = np.full(6, sigma2)
        Sigma = marginal_covariance(Z, G, r_shared)
        pooled = grad_resid_var_pooled(y, mu, Sigma)
        assert pooled == pytest.approx(float(np.sum(grad_resid_var(y, mu, Sigma))), rel=1e-14)
        fd = (
            oracle_loglik(y, mu, marginal_covariance(Z, G, r_shared + FD_STEP))
            - oracle_loglik(y, mu, marginal_covariance(Z, G, r_shared - FD_STEP))
        ) / (2 * FD_STEP)
        assert rel_err(fd, pooled) < FD_RTOL


class TestGroupGradients:
    def test_bundle_matches_parts(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            y, mu, Z, G, r = random_instance(rng)
            L = np.linalg.cholesky(G)
            Sigma = marginal_covariance(Z, G, r)
            gs = group_gradients(y, mu, Z, L, r)
            assert gs.loglik == pytest.approx(group_loglik(y, mu, Sigma), rel=1e-12)
            np.testing.assert_allclose(gs.mean, grad_mean(y, mu, Sigma), rtol=1e-12)
            np.testing.assert_allclose(
                gs.cov_factor, grad_cov_factor(y, mu, Z, L, r), rtol=1e-11, atol=1e-13
            )
            np.testing.assert_allclose(
                gs.log_resid_var, grad_log_resid_var(y, mu, Sigma, r), rtol=1e-11, atol=1e-13
            )


    def test_non_finite_gradient_raises_with_group_name(self):
        y = np.array([np.inf, 0.0])
        with np.errstate(invalid="ignore"), pytest.raises(SingularCovarianceError, match="grp3"):
            group_gradients(y, np.zeros(2), np.ones((2, 1)), np.eye(1), np.ones(2), "grp3")

def random_stacked(rng, sizes, q):
    """Stacked residuals, design and variances plus k lower factors."""
    n = int(np.sum(sizes))
    L = np.tril(rng.standard_normal((len(sizes), q, q)))
    idx = np.arange(q)
    L[:, idx, idx] = np.abs(L[:, idx, idx]) + 0.5
    return L, rng.standard_normal(n), rng.standard_normal((n, q)), rng.uniform(0.3, 1.5, size=n)


class TestBatchedKernel:
    def test_matches_per_group_path(self):
        # mixed group sizes in one call, one long group among them
        rng = np.random.default_rng(61)
        for q in (1, 2, 3):
            sizes = np.concatenate([rng.integers(1, 7, size=12), [200]])
            rng.shuffle(sizes)
            L, s, Z, r = random_stacked(rng, sizes, q)
            ll, d_mean, d_factor, d_logr = batched_quantities(L, s, Z, r, sizes)
            starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
            for i, (a, n) in enumerate(zip(starts, sizes)):
                rows = slice(a, a + n)
                gs = group_gradients(s[rows], np.zeros(n), Z[rows], L[i], r[rows])
                assert ll[i] == pytest.approx(gs.loglik, rel=1e-10, abs=1e-12)
                np.testing.assert_allclose(d_mean[rows], gs.mean, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(d_factor[i], gs.cov_factor, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(
                    d_logr[rows], gs.log_resid_var, rtol=1e-10, atol=1e-12
                )

    def test_loglik_only_mode(self):
        rng = np.random.default_rng(62)
        sizes = np.array([3, 1, 5, 2])
        L, s, Z, r = random_stacked(rng, sizes, 2)
        ll_full, _, _, _ = batched_quantities(L, s, Z, r, sizes)
        ll_only, a, b, c = batched_quantities(L, s, Z, r, sizes, want_gradients=False)
        np.testing.assert_allclose(ll_only, ll_full, rtol=1e-14)
        assert a is None and b is None and c is None

    def test_group_whose_dense_covariance_cannot_be_factored(self):
        # Sigma = 11' + r I with r = 1e-18 rounds to the singular 11', so the
        # dense Cholesky fails; the kernel only factors M = 1 + 3/r
        r_val = 1e-18
        s = np.array([0.3, -0.1, 0.2])
        Z = np.ones((3, 1))
        r = np.full(3, r_val)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(Z @ Z.T + np.diag(r))
        ll, d_mean, d_factor, d_logr = batched_quantities(
            np.ones((1, 1, 1)), s, Z, r, np.array([3])
        )
        assert np.all(np.isfinite(d_mean))
        assert np.all(np.isfinite(d_factor))
        assert np.all(np.isfinite(d_logr))
        logdet = 2.0 * np.log(r_val) + np.log(3.0 + r_val)
        quad = (s @ s - s.sum() ** 2 / (3.0 + r_val)) / r_val
        assert ll[0] == pytest.approx(-0.5 * (3 * LOG_2PI + logdet + quad), rel=1e-14)

    def test_rounding_failure_is_numerical_error(self):
        # one row, q = 2, w = (1, 1), r = 2^-70: 1 + 2^70 rounds to 2^70, so
        # M = I + 2^70 11' is computed as the exactly singular 2^70 11'
        with pytest.raises(NumericalError, match="positive definiteness"):
            batched_quantities(
                np.eye(2)[None], np.array([0.3]), np.ones((1, 2)),
                np.array([2.0**-70]), np.array([1]),
            )


class TestDegenerateCovariance:
    def test_jitter_rescues_singular_psd(self):
        # rank-deficient Sigma: two identical rows with zero residual variance
        Z = np.ones((2, 1))
        Sigma = marginal_covariance(Z, np.array([[1.0]]), np.zeros(2))
        factor, lower = chol_with_jitter(Sigma, group_id="g")
        assert np.all(np.isfinite(factor))

    def test_hopeless_matrix_raises_with_group_name(self):
        Sigma = np.array([[-1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(SingularCovarianceError, match="grp7"):
            chol_with_jitter(Sigma, group_id="grp7")


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_gradient_consistency_property(seed):
    """On any well-conditioned instance the bundled gradients match the
    one-at-a-time functions and the loglik matches the brute-force oracle."""
    rng = np.random.default_rng(seed)
    y, mu, Z, G, r = random_instance(rng)
    L = np.linalg.cholesky(G)
    Sigma = marginal_covariance(Z, G, r)
    gs = group_gradients(y, mu, Z, L, r)
    assert gs.loglik == pytest.approx(oracle_loglik(y, mu, Sigma), rel=1e-9, abs=1e-9)
    np.testing.assert_allclose(gs.mean, np.linalg.inv(Sigma) @ (y - mu), rtol=1e-8, atol=1e-10)
    assert np.all(np.isfinite(gs.cov_factor))
    assert np.all(np.isfinite(gs.log_resid_var))
