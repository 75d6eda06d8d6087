"""Eigenvalues and spectral diagnostics of the normalized Gram matrix.

``diag_max_dev``, ``covariance_error``, ``lambda_max`` and
``lambda_max_matfree`` read the data matrix X as a (p, n) ndarray, and
reject an empty one (p or n of 0) as ``MatrixShape`` does.  Dense
spectra come from LAPACK at every p; memory is their only limit.
``lambda_max`` is the one path to the top eigenvalue of A = build_A(X),
for the sweep's ``lambda_max`` task and the ``spectrum`` command alike,
and the only one that switches: to ``lambda_max_matfree`` (Lanczos) above
``DENSE_P_LIMIT`` rows.
``lambda_max_matfree`` gets the top eigenvalue of the normalized Gram
matrix without materializing it: one Lanczos pass, the same loop at every
p (1 included), with numpy's ``eigh`` on the tridiagonal, so numpy is the
package's only numeric dependency.  A value is accepted on its true
residual alone, so it lies within ``RESIDUAL_TOL`` (relative) of an
eigenvalue.  The solver stays for its peak memory, though the Gram path is
faster: at 2100 x 8400 the Gram path adds 72-106 MB to the 175 MB of a
process that samples X and solves matrix-free.

The Kolmogorov-Smirnov distance to the semicircle law is exact: it is
evaluated with the two-sided jump formula, with no grid discretization.
``covariance_error`` is the operator-norm error of S2 against a
population Sigma, next to its factorized bound.
"""

import math

import numpy as np

from .ensemble import MatrixShape
from .errors import ConvergenceError, ValidationError
from .normalize import build_A, build_S1, build_S2

__all__ = [
    "semicircle_cdf",
    "eigvals_sym",
    "symmetric_operator_norm",
    "ks_distance",
    "diag_max_dev",
    "covariance_error",
    "lambda_max",
    "lambda_max_matfree",
    "spectrum_to_csv",
]

DENSE_P_LIMIT = 2000
# lambda_max_matfree's only budget: one Lanczos pass of at most this many
# steps, a basis of 8.6 MB at p = 2100 next to the 134 MB of a p x 4p input.
# Solves at p = 2001-10^4 took 26-144 operator applications.
MAX_BASIS = 512
# lambda_max_matfree accepts a Ritz value whose true residual is at most
# RESIDUAL_TOL * max(1, |value|); that value lies as close to an eigenvalue.
RESIDUAL_TOL = 1e-10
# Largest entrywise asymmetry eigvals_sym accepts as rounding.
SYMMETRY_ATOL = 1e-10


def semicircle_cdf(x):
    """Closed-form CDF: 1/2 + (x sqrt(1-x^2) + arcsin x) / pi, clamped to [0, 1]."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -1.0, 1.0)
    out = 0.5 + (xc * np.sqrt(1.0 - xc**2) + np.arcsin(xc)) / np.pi
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def eigvals_sym(M) -> np.ndarray:
    """Full ascending spectrum of a symmetric matrix.

    Rejects a non-finite matrix, on which LAPACK fails or errs silently, and
    one whose asymmetry exceeds ``SYMMETRY_ATOL``.  The builders own symmetry,
    so M goes to LAPACK as it is; a nearly symmetric matrix from outside is
    decomposed from its lower triangle.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValidationError("matrix has non-finite entries; did the input overflow?")
    if M.shape[0] > 1 and float(np.max(np.abs(M - M.T))) > SYMMETRY_ATOL:
        raise ValidationError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(M)


def symmetric_operator_norm(M) -> float:
    """Spectral norm of a symmetric matrix: max |eigenvalue|."""
    w = eigvals_sym(M)
    return float(max(abs(w[0]), abs(w[-1])))


def ks_distance(eigenvalues) -> float:
    """Exact KS statistic between an ESD and the semicircle CDF.

    sup over jump points of max(|i/p - F(lam_i)|, |(i-1)/p - F(lam_i)|).
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    p = eigs.size
    if p == 0:
        raise ValidationError("need at least one eigenvalue")
    F = np.asarray(semicircle_cdf(eigs), dtype=float)
    i = np.arange(1, p + 1, dtype=float)
    return float(max(np.max(np.abs(i / p - F)), np.max(np.abs((i - 1) / p - F))))


def diag_max_dev(X) -> float:
    """max_i |sum_j (X_ij^2 - 1)| / sqrt(np), straight from row sums."""
    MatrixShape(*X.shape)  # p, n >= 1
    p, n = X.shape
    row_sums = np.einsum("ij,ij->i", X, X) - n
    return float(np.max(np.abs(row_sums))) / math.sqrt(n * p)


def covariance_error(X, sigma):
    """(||S2 - Sigma||, ||S1 - I|| * ||Sigma||, ||Sigma||) in operator norm.

    ``sigma`` is a ``CovarianceSpec``; the second value is the factorized
    bound that ||S2 - Sigma|| = ||Sigma^{1/2} (S1 - I) Sigma^{1/2}|| obeys.
    """
    p = MatrixShape(*X.shape).p
    S = sigma.materialize(p)
    err = symmetric_operator_norm(build_S2(X, S) - S)
    sigma_norm = symmetric_operator_norm(S)
    s1_dev = symmetric_operator_norm(build_S1(X) - np.eye(p))
    return err, s1_dev * sigma_norm, sigma_norm


# ---------------------------------------------------------------------------
# Largest eigenvalue: dense up to DENSE_P_LIMIT, matrix-free above.


def lambda_max(X):
    """(lambda_max(build_A(X)), aux), the ``lambda_max`` task's value and aux.

    Dense up to ``DENSE_P_LIMIT`` rows, where aux carries lambda_max(B) as
    ``lambda_max_b``; matrix-free above, where it carries ``iterations``.
    """
    if MatrixShape(*X.shape).p <= DENSE_P_LIMIT:
        A = build_A(X)
        lam = float(eigvals_sym(A)[-1])
        np.fill_diagonal(A, 0.0)
        lam_b = float(eigvals_sym(A)[-1])
        return lam, {"method": "dense", "lambda_max_b": lam_b}
    lam, iters = lambda_max_matfree(X)
    return lam, {"method": "matfree", "iterations": iters}


def lambda_max_matfree(X):
    """Largest eigenvalue of build_A(X) without forming the p x p matrix.

    Lanczos with full reorthogonalization on the operator
    v -> (X (X'v) - n v) / (2 sqrt(np)), in one pass that is never
    restarted: its only budget is min(p, ``MAX_BASIS``) steps, and solves
    at p = 2001-10^4 took 26-144 operator applications.  Memory stays at
    the p x n input plus at most ``MAX_BASIS`` work vectors of length p;
    the dense path adds a p x p Gram and LAPACK's workspace.  A 1 x n input
    breaks down after one step, and one more application verifies it.

    After every step the top Ritz pair (theta, v) of the Lanczos
    tridiagonal meets one test: the true residual ||A v - theta v|| <=
    RESIDUAL_TOL * max(1, |theta|), which puts theta that close to an
    eigenvalue of A however close its neighbours (Krylov-Bogoliubov).  A
    Ritz vector mixing two close top eigenvectors fails until they
    resolve.  It costs one application, so it runs only when the free
    estimate |beta_k y_k| passes, or at the last step: the cap or a breakdown
    (beta < 1e-14).  If that fails, ``ConvergenceError`` states and carries
    theta (it never decreases), the applications spent and that residual.
    No test on Lanczos data sees a top eigenvalue the start vector misses.
    A non-finite Lanczos coefficient or residual (an input that overflows)
    raises ``ValidationError`` at once.

    Returns (lambda_max, operator_applications).
    """
    MatrixShape(*X.shape)  # p, n >= 1
    p, n = X.shape
    scale = 2.0 * math.sqrt(n * p)

    matvecs = 0

    def apply_a(v):
        nonlocal matvecs
        matvecs += 1
        return (X @ (X.T @ v) - n * v) / scale

    def finite(value, what):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite {what} in lambda_max_matfree; did the input overflow?")
        return value

    cap = min(p, MAX_BASIS)
    Q = np.empty((cap, p))
    Q[0] = np.random.default_rng(0x5EED5EED).standard_normal(p)
    Q[0] /= np.linalg.norm(Q[0])
    # the Lanczos tridiagonal: alpha_j on the diagonal, beta_j below it
    T = np.zeros((cap, cap))
    for j in range(cap):
        w = apply_a(Q[j])
        alpha = float(Q[j] @ w)
        # full reorthogonalization, twice: the first pass also subtracts
        # the recurrence's alpha_j q_j and beta_j q_{j-1}, and the second
        # keeps a basis of hundreds orthonormal
        for _ in range(2):
            w -= Q[: j + 1].T @ (Q[: j + 1] @ w)
        beta = finite(float(np.linalg.norm(w)), "Lanczos coefficient")
        T[j, j] = alpha
        steps = j + 1
        final = beta < 1e-14 or steps == cap
        # eigh reads only the lower triangle, where T is tridiagonal
        ritz, vecs = np.linalg.eigh(T[:steps, :steps])
        theta, y = float(ritz[-1]), vecs[:, -1]
        limit = RESIDUAL_TOL * max(1.0, abs(theta))
        if final or abs(beta * y[-1]) <= limit:
            v = Q[:steps].T @ y
            v /= np.linalg.norm(v)
            resid = finite(float(np.linalg.norm(apply_a(v) - theta * v)), "residual")
            if resid <= limit:
                return theta, matvecs
        if final:
            break
        Q[steps] = w / beta
        T[steps, j] = beta
    raise ConvergenceError(
        f"no convergence after {matvecs} operator applications: best Ritz value {theta!r}, true residual {resid!r}",
        best_value=theta,
        iterations=matvecs,
        residual=resid,
    )


def spectrum_to_csv(eigenvalues, path) -> None:
    """CSV export with columns (index, eigenvalue)."""
    with open(path, "w", newline="") as fh:
        fh.write("index,eigenvalue\n")
        for i, v in enumerate(np.asarray(eigenvalues, dtype=float)):
            fh.write(f"{i},{float(v)!r}\n")
