"""Eigenvalues and spectral diagnostics of the normalized Gram matrix.

``diag_max_dev``, ``covariance_error``, ``lambda_max`` and
``lambda_max_matfree`` read the data matrix X as a (p, n) ndarray.  Dense
spectra come from LAPACK at every p; memory is their only limit.
``lambda_max`` is the one path to the top eigenvalue of A = build_A(X),
for the sweep's ``lambda_max`` task and the ``spectrum`` command alike,
and the only one that switches: to ``lambda_max_matfree`` (Lanczos) above
``DENSE_P_LIMIT`` rows.
``lambda_max_matfree`` gets the top eigenvalue of the normalized Gram
matrix without ever materializing it, by Lanczos with full
reorthogonalization on the operator v -> (X (X' v) - n v) / (2 sqrt(np)).
The Krylov basis grows until the top Ritz pair passes a residual test;
it is restarted only when it reaches ``MAX_BASIS`` vectors.  The Ritz
pair comes from numpy's ``eigh`` on the Lanczos tridiagonal, so numpy is
the package's only numeric dependency.

Distribution comparisons are exact: the Kolmogorov-Smirnov statistic is
evaluated with the two-sided jump formula (no grid discretization), and
the sup distance of two empirical spectral distributions is computed
over the merged jump set.  ``covariance_error`` is the operator-norm
error of S2 against a population Sigma, next to its factorized bound.
"""

import math

import numpy as np

from .errors import ConvergenceError, ValidationError
from .normalize import build_A, build_S1, build_S2

__all__ = [
    "semicircle_cdf",
    "eigvals_sym",
    "symmetric_operator_norm",
    "ks_distance",
    "esd_sup_diff",
    "diag_max_dev",
    "covariance_error",
    "lambda_max",
    "lambda_max_matfree",
    "spectrum_to_csv",
]

DENSE_P_LIMIT = 2000
# Lanczos basis vectors kept before a restart: 8.6 MB at p = 2100, next to
# the 134 MB of a p x 4p input.  A solve at the spectral edge needs ~100-250.
MAX_BASIS = 512
# lambda_max_matfree's stopping rule; its docstring says how they are read.
RESIDUAL_TOL = 1e-10
MAX_ITER = 20000
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

    Rejects matrices whose asymmetry exceeds ``SYMMETRY_ATOL``; the remaining
    rounding asymmetry is symmetrized away before the decomposition.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] > 1 and float(np.max(np.abs(M - M.T))) > SYMMETRY_ATOL:
        raise ValidationError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh((M + M.T) / 2.0)


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


def esd_sup_diff(eigsA, eigsB) -> float:
    """Exact sup-norm distance of two ESDs over the merged jump set."""
    a = np.sort(np.asarray(eigsA, dtype=float))
    b = np.sort(np.asarray(eigsB, dtype=float))
    if a.size != b.size:
        raise ValidationError(f"spectra have different lengths ({a.size} vs {b.size})")
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right")
    cb = np.searchsorted(b, grid, side="right")
    return float(np.max(np.abs(ca - cb))) / a.size


def diag_max_dev(X) -> float:
    """max_i |sum_j (X_ij^2 - 1)| / sqrt(np), straight from row sums."""
    p, n = X.shape
    row_sums = np.einsum("ij,ij->i", X, X) - n
    return float(np.max(np.abs(row_sums))) / math.sqrt(n * p)


def covariance_error(X, sigma):
    """(||S2 - Sigma||, ||S1 - I|| * ||Sigma||, ||Sigma||) in operator norm.

    ``sigma`` is a ``CovarianceSpec``; the second value is the factorized
    bound that ||S2 - Sigma|| = ||Sigma^{1/2} (S1 - I) Sigma^{1/2}|| obeys.
    """
    p = X.shape[0]
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
    if X.shape[0] <= DENSE_P_LIMIT:
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
    v -> (X (X'v) - n v) / (2 sqrt(np)).  The basis keeps growing, so no
    Krylov information is thrown away; it is restarted from the top Ritz
    vector only when it reaches ``MAX_BASIS`` vectors.  Memory stays at the
    p x n input plus at most ``MAX_BASIS`` work vectors of length p.

    After every step the top Ritz pair (theta, y) of the k x k Lanczos
    tridiagonal is read.  Its residual estimate |beta_k y_k| costs no
    operator application; only when it passes does one application give
    the true residual ||A v - theta v||.  The value is accepted when that
    residual is <= RESIDUAL_TOL * max(1, |theta|) AND theta moved by at
    most as much since the previous step (or the Krylov space became
    invariant): the residual alone is unreliable near clustered spectral
    edges.

    ``MAX_ITER`` bounds the operator applications, the residual ones
    included; the last one is kept for the true residual of the final
    Ritz pair, which ``ConvergenceError`` carries with the Ritz value.
    A non-finite Lanczos coefficient or residual (non-finite input) raises
    ``ValidationError`` at once.

    Returns (lambda_max, operator_applications).
    """
    p, n = X.shape
    scale = 2.0 * math.sqrt(n * p)

    matvecs = 0

    def apply_a(v):
        nonlocal matvecs
        matvecs += 1
        return (X @ (X.T @ v) - n * v) / scale

    def finite(value, what):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite {what} in lambda_max_matfree; is the input finite?")
        return value

    if p == 1:
        lam = float((X[0] @ X[0] - n) / scale)
        return finite(lam, "eigenvalue"), 0

    rng = np.random.default_rng(0x5EED5EED)
    v = rng.standard_normal(p)
    v /= np.linalg.norm(v)

    cap = min(p, MAX_BASIS)
    Q = np.empty((cap, p))
    # the Lanczos tridiagonal: alpha_j on the diagonal, beta_j below it
    T = np.zeros((cap, cap))
    best = resid = None
    while matvecs < MAX_ITER:
        Q[0] = v
        for j in range(cap):
            w = apply_a(Q[j])
            alpha = float(Q[j] @ w)
            w -= alpha * Q[j]
            if j > 0:
                w -= T[j, j - 1] * Q[j - 1]
            # full reorthogonalization: the three-term recurrence loses
            # orthogonality long before the edge Ritz value settles, and a
            # second Gram-Schmidt pass keeps a basis of hundreds orthonormal
            for _ in range(2):
                w -= Q[: j + 1].T @ (Q[: j + 1] @ w)
            beta = finite(float(np.linalg.norm(w)), "Lanczos coefficient")
            T[j, j] = alpha
            steps = j + 1
            breakdown = beta < 1e-14 or steps == p
            last = matvecs + 1 >= MAX_ITER
            # eigh reads only the lower triangle, where T is tridiagonal
            ritz, vecs = np.linalg.eigh(T[:steps, :steps])
            theta, y = float(ritz[-1]), vecs[:, -1]
            limit = RESIDUAL_TOL * max(1.0, abs(theta))
            moved_ok = best is not None and abs(theta - best) <= limit
            best = theta
            verify = breakdown or last or abs(beta * y[-1]) <= limit
            if verify or steps == cap:
                v = Q[:steps].T @ y
                v /= np.linalg.norm(v)
            if verify and matvecs < MAX_ITER:
                resid = finite(float(np.linalg.norm(apply_a(v) - theta * v)), "residual")
                if resid <= limit and (moved_ok or breakdown):
                    return theta, matvecs
            if breakdown or last or steps == cap:
                break  # restart from the top Ritz vector, or give up
            Q[steps] = w / beta
            T[steps, j] = beta
    raise ConvergenceError(
        f"no convergence within {MAX_ITER} operator applications",
        best_value=best,
        iterations=matvecs,
        residual=resid,
    )


def spectrum_to_csv(eigenvalues, path) -> None:
    """CSV export with columns (index, eigenvalue)."""
    with open(path, "w", newline="") as fh:
        fh.write("index,eigenvalue\n")
        for i, v in enumerate(np.asarray(eigenvalues, dtype=float)):
            fh.write(f"{i},{float(v)!r}\n")
