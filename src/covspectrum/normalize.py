"""Matrix constructions and the truncation step's report.

Builds every matrix the analysis needs from a p x n data matrix X, a
float64 ndarray (read-only when it comes from ``ensemble``):

* ``build_A``  -- (X X' - n I) / (2 sqrt(np)), the normalized Gram matrix
  whose spectrum concentrates on [-1, 1];
* ``build_S1`` -- the centered sample covariance (1/n) sum (s_j - sbar)(...)';
* ``build_A1`` -- (1/2) sqrt(n/p) (S1 - I), the centered analogue of A;
* ``build_S2`` -- Sigma^{1/2} S1 Sigma^{1/2} for a population covariance.

A population covariance Sigma enters one way: ``covariance_from_json``
parses its JSON spec into a ``CovarianceSpec``, whose ``materialize(p)``
gives the p x p array that ``sqrt_psd`` and ``build_S2`` take.

The truncation step of the proof uses one fixed delta = ``default_delta``
= (np)^{-1/8}: entries exceeding delta * (np)^{1/4} become zero (indicator
truncation, not winsorizing), then the matrix is recentred and rescaled by
its own sample mean and sd.  ``truncation_report`` returns the numbers a
sweep records from that step (the threshold, the truncated count and
fraction, and the mean and variance after standardizing), never the
standardized matrix.  It makes three passes over X's row blocks of about
``BLOCK`` entries.  A block with no entry above the threshold is read in
place; only a block that holds one is copied, with those entries zeroed.
So it allocates no p x n temporary, also for a transposed or strided X.
Every reduction is numpy's ``.sum()`` over a block, never a BLAS dot
(``np.dot``, ``np.vdot``, ``@``): OpenBLAS splits a dot across its
threads, so its rounding, and with it the report, would depend on the
thread count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import MatrixShape, _is_real, _reject_unknown, load_matrix
from .errors import DegenerateInputError, ValidationError

__all__ = [
    "CovarianceSpec",
    "TruncationReport",
    "covariance_from_json",
    "build_A",
    "build_S",
    "build_S1",
    "build_A1",
    "default_delta",
    "truncation_report",
    "sqrt_psd",
    "build_S2",
]


def _sym(M: np.ndarray) -> np.ndarray:
    half = M / 2.0  # halved first, so a finite M gives a finite result
    return half + half.T


def build_A(X) -> np.ndarray:
    """(X X' - n I) / (2 sqrt(np)), symmetrized to kill rounding asymmetry."""
    p, n = X.shape
    M = X @ X.T
    M[np.diag_indices(p)] -= n
    return _sym(M / (2.0 * math.sqrt(n * p)))


def build_S(X) -> np.ndarray:
    """Uncentered sample covariance X X' / n."""
    n = X.shape[1]
    return _sym(X @ X.T / n)


def build_S1(X) -> np.ndarray:
    """Centered sample covariance S - sbar sbar', exactly symmetric because both terms are."""
    sbar = X.mean(axis=1)
    return build_S(X) - np.outer(sbar, sbar)


def build_A1(X) -> np.ndarray:
    """(1/2) sqrt(n/p) (S1 - I), exactly symmetric because S1 is."""
    p, n = X.shape
    S1 = build_S1(X)
    S1[np.diag_indices(p)] -= 1.0
    return 0.5 * math.sqrt(n / p) * S1


# ---------------------------------------------------------------------------
# Truncation.

# Entries per row block of truncation_report: r = max(1, BLOCK // n) rows.
BLOCK = 2**16


@dataclass(frozen=True)
class TruncationReport:
    """The truncation step's numbers for one p x n matrix.

    * ``threshold`` -- default_delta * (np)^{1/4}, the level above which
      |x| becomes 0;
    * ``count_truncated`` -- the exact number of entries with |x| above it;
    * ``fraction_truncated`` -- count_truncated / (p n), correctly rounded;
    * ``post_mean``, ``post_sigma2`` -- the mean and the variance (divisor
      p n) of the standardized entries (kept - mu) / sigma, computed from
      those entries, not set to 0 and 1, so they show the rounding of the
      standardization.
    """

    threshold: float
    fraction_truncated: float
    count_truncated: int
    post_mean: float
    post_sigma2: float


def default_delta(shape: MatrixShape) -> float:
    """(np)^{-1/8}: goes to 0 while the threshold (np)^{1/8} grows."""
    return float(shape.n * shape.p) ** (-0.125)


def _threshold(shape: MatrixShape) -> float:
    return default_delta(shape) * float(shape.n * shape.p) ** 0.25


def _kept(block, truncated: int, threshold: float):
    """block with |x| > threshold set to 0: block itself, read in place, when truncated is 0."""
    return np.where(np.abs(block) > threshold, 0.0, block) if truncated else block


def truncation_report(X) -> TruncationReport:
    """The truncation step's numbers for X, without the standardized matrix.

    Entries with |x| above the threshold are set to 0; the kept matrix is
    centred and scaled by its own mean mu and sd sigma.  Three passes over
    the row blocks X[i:i+r], r = max(1, BLOCK // n).  A block with no
    entry above the threshold is read in place; one that holds such an
    entry is copied with it set to 0.  Each pass sums its blocks with
    numpy's ``.sum()``, adds the block sums in order and divides by p n.
    It uses no BLAS dot, whose rounding depends on OpenBLAS's thread
    count:

    1. the exact count of |x| > threshold per block, and mu, the mean of
       the kept matrix;
    2. sigma^2, the mean of (kept - mu)^2, two-pass as numpy's ``std``;
    3. the sums of z = (kept - mu) / sigma and of z^2, which give
       ``post_mean`` = sum z / pn and ``post_sigma2`` = sum z^2 / pn -
       post_mean^2.

    ``post_mean`` and ``post_sigma2`` may differ in the last bits from
    numpy's full-array ``mean()`` and ``var()`` of the standardized
    matrix.  Memory: a few arrays of one block each, never a p x n
    temporary.  Raises DegenerateInputError when the kept matrix has zero
    or non-finite variance.
    """
    shape = MatrixShape(*X.shape)
    size = shape.p * shape.n
    threshold = _threshold(shape)
    rows = max(1, BLOCK // shape.n)
    blocks = [X[i : i + rows] for i in range(0, shape.p, rows)]
    counts, total = [], 0.0
    for block in blocks:
        counts.append(int(np.count_nonzero(np.abs(block) > threshold)))
        total += float(_kept(block, counts[-1], threshold).sum())
    mu = total / size
    squares = 0.0
    for block, truncated in zip(blocks, counts):
        squares += float(np.square(_kept(block, truncated, threshold) - mu).sum())
    sigma = math.sqrt(squares / size)
    if sigma == 0.0 or not math.isfinite(sigma):
        raise DegenerateInputError("zero variance after truncation")
    z_sum, z_squares = 0.0, 0.0
    for block, truncated in zip(blocks, counts):
        z = _kept(block, truncated, threshold) - mu
        z /= sigma
        z_sum += float(z.sum())
        z_squares += float(np.square(z, out=z).sum())
    post_mean = z_sum / size
    count = sum(counts)
    return TruncationReport(threshold, count / size, count, post_mean, z_squares / size - post_mean**2)


# ---------------------------------------------------------------------------
# Population covariances.


# The JSON fields each kind takes; CovarianceSpec reads "path" as its matrix.
_COVARIANCE_FIELDS = {
    "identity": ("kind",),
    "diagonal": ("kind", "d"),
    "toeplitz": ("kind", "rho"),
    "explicit": ("kind", "path"),
}


@dataclass(frozen=True)
class CovarianceSpec:
    """identity | diagonal(d_1..d_p) | toeplitz(rho) | explicit matrix."""

    kind: str
    d: tuple | None = None
    rho: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _COVARIANCE_FIELDS:
            raise ValidationError(f"unknown covariance kind {self.kind!r}")
        for field, key in (("d", "d"), ("rho", "rho"), ("matrix", "path")):
            if key not in _COVARIANCE_FIELDS[self.kind] and getattr(self, field) is not None:
                raise ValidationError(f"{self.kind} covariance takes no {field}")
        if self.kind == "diagonal":
            if not (isinstance(self.d, tuple) and self.d and all(_is_real(v) and v >= 0 for v in self.d)):
                raise ValidationError("diagonal covariance needs a list of finite numbers d_i >= 0")
        elif self.kind == "toeplitz":
            if not (_is_real(self.rho) and -1 < self.rho < 1):
                raise ValidationError("toeplitz covariance needs a number rho in (-1, 1)")
        elif self.kind == "explicit":
            m = self.matrix
            if m is None or m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError("explicit covariance needs a square matrix")
            if np.max(np.abs(m - m.T)) > 1e-10 * max(1.0, float(np.max(np.abs(m)))):
                raise ValidationError("explicit covariance must be symmetric")

    def materialize(self, p: int) -> np.ndarray:
        """Sigma as an exactly symmetric p x p float array."""
        if self.kind == "identity":
            return np.eye(p)
        if self.kind == "diagonal":
            if len(self.d) != p:
                raise ValidationError(f"diagonal has {len(self.d)} entries, expected {p}")
            return np.diag(np.asarray(self.d, dtype=float))
        if self.kind == "toeplitz":
            idx = np.arange(p)
            return self.rho ** np.abs(idx[:, None] - idx[None, :])
        if self.matrix.shape[0] != p:
            raise ValidationError(f"explicit covariance is {self.matrix.shape[0]} x {self.matrix.shape[1]}, expected {p} x {p}")
        return _sym(self.matrix)


def covariance_from_json(obj) -> CovarianceSpec:
    """Parse {"kind": ...}; explicit matrices come from a binary matrix file."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("covariance spec must be a dict with 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _COVARIANCE_FIELDS:
        raise ValidationError(f"unknown covariance kind {kind!r}")
    _reject_unknown(obj, _COVARIANCE_FIELDS[kind], "covariance")
    if kind != "explicit":  # each kind's fields were checked above, so the others are None
        d = obj.get("d")
        return CovarianceSpec(kind, d=tuple(d) if isinstance(d, list) else d, rho=obj.get("rho"))
    if not isinstance(obj.get("path"), str):
        raise ValidationError("explicit covariance needs a 'path' string naming a matrix file")
    return CovarianceSpec(kind, matrix=load_matrix(obj["path"]))


def sqrt_psd(sigma: np.ndarray, p: int) -> np.ndarray:
    """PSD square root of the symmetric p x p array sigma (eigh reads its lower triangle).

    An eigenvalue below -1e-10 * max(1, max|w|) is not PSD; one above it clips to 0.
    """
    if sigma.shape != (p, p):
        raise ValidationError(f"covariance shape {sigma.shape} does not match p={p}")
    w, V = np.linalg.eigh(sigma)
    if w.min() < -1e-10 * max(1.0, float(np.max(np.abs(w)))):
        raise ValidationError(f"covariance is not PSD (min eigenvalue {w.min():.3e})")
    return _sym((V * np.sqrt(np.clip(w, 0.0, None))) @ V.T)


def build_S2(X, sigma: np.ndarray) -> np.ndarray:
    """Sigma^{1/2} S1 Sigma^{1/2} for the p x p array sigma: sample covariance of Sigma^{1/2} s_j."""
    root = sqrt_psd(sigma, X.shape[0])
    return _sym(root @ build_S1(X) @ root)
