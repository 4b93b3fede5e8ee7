"""Gaussian marginal log-likelihood and its gradients for one group.

With responses y, mean mu, random-effect design Z, random-effect covariance
G, and residual variances r on the diagonal of R, the group's marginal
covariance is

    Sigma = Z G Z' + diag(r)

and the log-likelihood is

    l = -0.5 * (n log(2 pi) + log det Sigma + s' Sigma^{-1} s),  s = y - mu.

Gradients, with a = Sigma^{-1} s:
    dl/dmu         = a
    dl/dG          = -0.5 * (Z' Sigma^{-1} Z - r_vec r_vec'),  r_vec = Z' a
    dl/dL          = 2 * (dl/dG) L, lower triangle      (G = L L')
    dl/dr_j        = -0.5 * ((Sigma^{-1})_jj - a_j^2)
    dl/dlog r_j    = dl/dr_j * r_j
    dl/dsigma2     = sum_j dl/dr_j                      (pooled residual variance)

The per-group functions below factor the n x n Sigma once per group by
Cholesky; solves reuse the factor and no explicit inverse of Sigma is formed
except the factor-based solve against the identity needed for
diag(Sigma^{-1}). When the factorization fails, a small diagonal jitter
proportional to the mean of diag(Sigma) is added and doubled up to three
times before giving up. They serve as test oracles, and chol_with_jitter also
factors the covariances behind the BLUPs in prediction.

Fitting goes through batched_quantities instead, which never forms Sigma.
With G = L L' and W = Z L, let M = I_q + W' R^{-1} W. The Woodbury identity
and the matrix determinant lemma give

    Sigma^{-1}    = R^{-1} - R^{-1} W M^{-1} W' R^{-1}
    log det Sigma = sum_j log r_j + log det M

so every group costs O(n_i q^2) plus one q x q Cholesky factorization. M >= I,
so that factorization cannot fail in exact arithmetic while every r_j > 0, and
no jitter applies in fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DataError, NumericalError, SingularCovarianceError

LOG_2PI = float(np.log(2.0 * np.pi))
JITTER_SCALE = 1e-8
JITTER_RETRIES = 3


def marginal_covariance(Z: np.ndarray, G: np.ndarray, r_diag: np.ndarray) -> np.ndarray:
    """Sigma = Z G Z' + diag(r_diag) for one group."""
    Z = np.asarray(Z, dtype=float)
    G = np.asarray(G, dtype=float)
    r = np.asarray(r_diag, dtype=float)
    if Z.ndim != 2:
        raise DataError("Z must be a matrix")
    n, q = Z.shape
    if G.shape != (q, q):
        raise DataError(f"G must be {q}x{q} to match Z")
    if r.shape != (n,):
        raise DataError(f"r_diag must have length {n}")
    return Z @ G @ Z.T + np.diag(r)


def chol_with_jitter(Sigma: np.ndarray, group_id=None):
    """Cholesky factor of Sigma, retrying with growing diagonal jitter.

    Returns (factor, lower) as produced by scipy's cho_factor. Raises
    SingularCovarianceError naming the group when all retries fail.
    """
    try:
        return cho_factor(Sigma, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_SCALE * float(np.mean(np.diag(Sigma)))
    if jitter <= 0.0 or not np.isfinite(jitter):
        jitter = JITTER_SCALE
    eye = np.eye(Sigma.shape[0])
    for _ in range(JITTER_RETRIES):
        try:
            return cho_factor(Sigma + jitter * eye, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            jitter *= 2.0
    raise SingularCovarianceError(
        f"marginal covariance for group {group_id!r} is not positive definite "
        f"after jitter retries"
    )


def group_loglik(y: np.ndarray, mu: np.ndarray, Sigma: np.ndarray, group_id=None) -> float:
    """Gaussian log-density of one group under mean mu and covariance Sigma."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n = y.shape[0]
    if mu.shape != (n,):
        raise DataError("mu must match y in length")
    if Sigma.shape != (n, n):
        raise DataError("Sigma must be square matching y")
    factor = chol_with_jitter(Sigma, group_id)
    s = y - mu
    alpha = cho_solve(factor, s, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return -0.5 * (n * LOG_2PI + logdet + float(s @ alpha))


def grad_mean(y, mu, Sigma, group_id=None) -> np.ndarray:
    """dl/dmu = Sigma^{-1} (y - mu)."""
    factor = chol_with_jitter(np.asarray(Sigma, dtype=float), group_id)
    s = np.asarray(y, dtype=float) - np.asarray(mu, dtype=float)
    return cho_solve(factor, s, check_finite=False)


def grad_group_cov(y, mu, Z, Sigma, group_id=None) -> np.ndarray:
    """dl/dG = -0.5 (Z' Sigma^{-1} Z - r r') with r = Z' Sigma^{-1} (y - mu)."""
    Z = np.asarray(Z, dtype=float)
    factor = chol_with_jitter(np.asarray(Sigma, dtype=float), group_id)
    s = np.asarray(y, dtype=float) - np.asarray(mu, dtype=float)
    alpha = cho_solve(factor, s, check_finite=False)
    SinvZ = cho_solve(factor, Z, check_finite=False)
    r_vec = Z.T @ alpha
    return -0.5 * (Z.T @ SinvZ - np.outer(r_vec, r_vec))


def grad_cov_factor(y, mu, Z, L, r_diag, group_id=None) -> np.ndarray:
    """dl/dL = 2 (dl/dG) L for G = L L', zeroed above the diagonal."""
    L = np.asarray(L, dtype=float)
    Sigma = marginal_covariance(Z, L @ L.T, r_diag)
    dG = grad_group_cov(y, mu, Z, Sigma, group_id)
    return np.tril(2.0 * dG @ L)


def grad_resid_var(y, mu, Sigma, group_id=None) -> np.ndarray:
    """dl/dr_j = -0.5 ((Sigma^{-1})_jj - (Sigma^{-1} s)_j^2), per observation."""
    Sigma = np.asarray(Sigma, dtype=float)
    factor = chol_with_jitter(Sigma, group_id)
    s = np.asarray(y, dtype=float) - np.asarray(mu, dtype=float)
    alpha = cho_solve(factor, s, check_finite=False)
    Sinv_diag = np.diag(cho_solve(factor, np.eye(Sigma.shape[0]), check_finite=False))
    return -0.5 * (Sinv_diag - alpha**2)


def grad_log_resid_var(y, mu, Sigma, r_diag, group_id=None) -> np.ndarray:
    """Chain rule through r = exp(log r): dl/dlog r_j = dl/dr_j * r_j."""
    return grad_resid_var(y, mu, Sigma, group_id) * np.asarray(r_diag, dtype=float)


def grad_resid_var_pooled(y, mu, Sigma, group_id=None) -> float:
    """dl/dsigma2 for one shared residual variance: sum of per-observation grads."""
    return float(np.sum(grad_resid_var(y, mu, Sigma, group_id)))


@dataclass(frozen=True)
class GradientSet:
    """All gradients needed for one boosting step on one group."""

    mean: np.ndarray            # (n_i,) dl/dmu
    cov_factor: np.ndarray      # (q, q) dl/dL, lower triangular
    log_resid_var: np.ndarray   # (n_i,) dl/dlog r
    loglik: float


def group_gradients(y, mu, Z, L, r_diag, group_id=None) -> GradientSet:
    """Log-likelihood and all gradients for one group, from the functions above.

    L parameterizes G = L L'; r_diag holds per-observation residual
    variances. Raises a numerical error when gradients come out non-finite.
    """
    L = np.asarray(L, dtype=float)
    r = np.asarray(r_diag, dtype=float)
    Sigma = marginal_covariance(Z, L @ L.T, r)
    out = GradientSet(
        mean=grad_mean(y, mu, Sigma, group_id),
        cov_factor=grad_cov_factor(y, mu, Z, L, r, group_id),
        log_resid_var=grad_log_resid_var(y, mu, Sigma, r, group_id),
        loglik=group_loglik(y, mu, Sigma, group_id),
    )
    if not all(np.all(np.isfinite(g)) for g in (out.mean, out.cov_factor, out.log_resid_var)):
        raise SingularCovarianceError(f"non-finite gradient for group {group_id!r}")
    return out


def batched_quantities(
    L: np.ndarray,       # (k, q, q) lower factors of G, one per group
    s: np.ndarray,       # (n,) stacked residuals y - mu, groups contiguous
    Z: np.ndarray,       # (n, q) stacked random-effect design
    r: np.ndarray,       # (n,) stacked residual variances, all positive
    sizes: np.ndarray,   # (k,) rows per group, each at least 1
    want_gradients: bool = True,
):
    """Log-likelihoods (and optionally gradients) for k groups of any sizes.

    Works on the q x q systems M_i = I + W_i' R_i^-1 W_i, W_i = Z_i L_i, so
    the cost is linear in the stacked rows and no n_i x n_i matrix is formed.
    With c = M^-1 W' R^-1 s and P = Z' R^-1 W, per group:

        a               = R^-1 (s - W c)
        dl/dL           = tril(-P M^-1 + (Z' a) c')
        (Sigma^-1)_jj   = 1/r_j - w_j' M^-1 w_j / r_j^2

    and every per-group sum is one np.add.reduceat over the stacked rows.
    Returns (loglik (k,), d_mean (n,), d_factor (k,q,q), d_logr (n,)); the
    gradient entries are None when want_gradients is False. Results match
    group_gradients group by group.
    """
    k, q = L.shape[:2]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    seg = np.repeat(np.arange(k), sizes)
    W = np.einsum("na,nab->nb", Z, L[seg])
    Wr = W / r[:, None]
    M = np.eye(q) + np.add.reduceat(W[:, :, None] * Wr[:, None, :], starts)
    try:
        Lm = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        # M >= I in exact arithmetic; rounding breaks that only when a group's
        # W' R^-1 W is rank-deficient (fewer rows than q, or collinear Z
        # columns) at a scale above about 1e16
        raise NumericalError(
            "I + W' R^-1 W lost positive definiteness to rounding; residual "
            "variances are negligible against the random-effect covariance"
        ) from None
    Minv = np.linalg.inv(M)
    c = np.einsum("kab,kb->ka", Minv, np.add.reduceat(Wr * s[:, None], starts))
    alpha = (s - np.einsum("na,na->n", W, c[seg])) / r

    d = np.arange(q)
    logdet = np.add.reduceat(np.log(r), starts) + 2.0 * np.sum(np.log(Lm[:, d, d]), axis=1)
    quad = np.add.reduceat(s * alpha, starts)
    ll = -0.5 * (sizes * LOG_2PI + logdet + quad)
    if not want_gradients:
        return ll, None, None, None

    P = np.add.reduceat(Z[:, :, None] * Wr[:, None, :], starts)
    Za = np.add.reduceat(Z * alpha[:, None], starts)
    dF = np.tril(-P @ Minv + Za[:, :, None] * c[:, None, :])
    Sinv_diag = (1.0 - np.einsum("na,nab,nb->n", W, Minv[seg], W) / r) / r
    dlogr = -0.5 * (Sinv_diag - alpha**2) * r
    return ll, alpha, dF, dlogr
