"""Matrix constructions and the truncation/recentering pipeline.

Builds every matrix the analysis needs from a p x n data matrix X, a
float64 ndarray (read-only when it comes from ``ensemble``):

* ``build_A``  -- (X X' - n I) / (2 sqrt(np)), the normalized Gram matrix
  whose spectrum concentrates on [-1, 1];
* ``build_B``  -- the same with the diagonal zeroed;
* ``build_S1`` -- the centered sample covariance (1/n) sum (s_j - sbar)(...)';
* ``build_A1`` -- (1/2) sqrt(n/p) (S1 - I), the centered analogue of A;
* ``build_S2`` -- Sigma^{1/2} S1 Sigma^{1/2} for a population covariance.

A population covariance Sigma enters one way: ``covariance_from_json``
parses its JSON spec into a ``CovarianceSpec``, whose ``materialize(p)``
gives the p x p array that ``sqrt_psd`` and ``build_S2`` take.

The truncation step of the proof uses one fixed delta = ``default_delta``
= (np)^{-1/8}: entries exceeding delta * (np)^{1/4} become zero (indicator
truncation, not winsorizing), then the matrix is recentred and rescaled by
its own sample mean and sd.  It has two entry points:

* ``truncation_report`` returns only the numbers a sweep records (the
  threshold, the truncated count and fraction, and the mean and variance
  after standardizing).  It reads X in row blocks of about ``BLOCK``
  entries and never ravels or copies it, so it allocates no p x n
  temporary, also for a transposed or strided X;
* ``truncation_pipeline`` returns the standardized matrix as a read-only
  (p, n) array with the same report.  Every pass runs in place on that
  result: beside it the pipeline holds only a transient bool mask and
  numpy's own temporaries, so it never holds more than 2x the input on top
  of the input itself.
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
    "build_B",
    "build_S",
    "build_S1",
    "build_A1",
    "default_delta",
    "truncation_report",
    "truncation_pipeline",
    "sqrt_psd",
    "build_S2",
]


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def build_A(X) -> np.ndarray:
    """(X X' - n I) / (2 sqrt(np)), symmetrized to kill rounding asymmetry."""
    p, n = X.shape
    M = X @ X.T
    M[np.diag_indices(p)] -= n
    return _sym(M / (2.0 * math.sqrt(n * p)))


def build_B(X) -> np.ndarray:
    """build_A with the diagonal replaced by zeros."""
    B = build_A(X)
    np.fill_diagonal(B, 0.0)
    return B


def build_S(X) -> np.ndarray:
    """Uncentered sample covariance X X' / n."""
    n = X.shape[1]
    return _sym(X @ X.T / n)


def build_S1(X) -> np.ndarray:
    """Centered sample covariance, computed as S - sbar sbar' in one pass."""
    sbar = X.mean(axis=1)
    return _sym(build_S(X) - np.outer(sbar, sbar))


def build_A1(X) -> np.ndarray:
    """(1/2) sqrt(n/p) (S1 - I)."""
    p, n = X.shape
    S1 = build_S1(X)
    S1[np.diag_indices(p)] -= 1.0
    return _sym(0.5 * math.sqrt(n / p) * S1)


# ---------------------------------------------------------------------------
# Truncation pipeline.

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


def _kept_blocks(X, threshold: float):
    """X's row blocks X[i:i+r], r = max(1, BLOCK // n), with |x| > threshold set to 0.

    Yields each block as a fresh array, which the caller may overwrite,
    with its count of zeroed entries.  X is only sliced, never copied
    whole, whatever its strides.
    """
    p, n = X.shape
    rows = max(1, BLOCK // n)
    for i in range(0, p, rows):
        block = X[i : i + rows]
        kept = np.abs(block)
        mask = kept > threshold
        np.copyto(kept, block)
        np.copyto(kept, 0.0, where=mask)
        yield kept, int(np.count_nonzero(mask))


def truncation_report(X) -> TruncationReport:
    """The report of ``truncation_pipeline`` without the standardized matrix.

    Four passes over X in row blocks (see ``_kept_blocks``).  Each sums
    its block's values with numpy and adds the block sums in order, then
    divides by p n:

    1. the count of |x| > threshold, and mu, the mean of the kept matrix;
    2. sigma^2, the mean of (kept - mu)^2, two-pass as numpy's ``std``;
    3. ``post_mean``, the mean of z = (kept - mu) / sigma;
    4. ``post_sigma2``, the mean of (z - post_mean)^2.

    ``threshold``, ``count_truncated`` and ``fraction_truncated`` equal
    the pipeline's bit for bit; ``post_mean`` and ``post_sigma2`` may
    differ from its full-array sums in the last bits.  Memory: a few
    arrays of one block each, never a p x n temporary.  Raises
    DegenerateInputError when the kept matrix has zero or non-finite
    variance.
    """
    shape = MatrixShape(*X.shape)
    size = shape.p * shape.n
    threshold = _threshold(shape)
    count, total = 0, 0.0
    for kept, truncated in _kept_blocks(X, threshold):
        count += truncated
        total += float(kept.sum())
    mu = total / size

    def mean_of(scale: float, shift: float, squared: bool) -> float:
        """The mean of ((kept - mu) / scale - shift), squared if asked."""
        acc = 0.0
        for z, _ in _kept_blocks(X, threshold):
            z -= mu
            z /= scale
            z -= shift
            if squared:
                np.square(z, out=z)
            acc += float(z.sum())
        return acc / size

    sigma = math.sqrt(mean_of(1.0, 0.0, squared=True))
    if sigma == 0.0 or not math.isfinite(sigma):
        raise DegenerateInputError("zero variance after truncation")
    post_mean = mean_of(sigma, 0.0, squared=False)
    return TruncationReport(
        threshold=threshold,
        fraction_truncated=count / size,
        count_truncated=count,
        post_mean=post_mean,
        post_sigma2=mean_of(sigma, post_mean, squared=True),
    )


def truncation_pipeline(X):
    """Truncate at default_delta * (np)^{1/4}, then standardize empirically.

    Entries with |x| above the threshold become 0; the kept matrix is
    centred and scaled by its own sample mean and sd, so the output has
    entrywise mean 0 and variance 1 to machine precision.  The report
    gives the threshold, the truncated count and fraction, and
    ``post_mean`` and ``post_sigma2``, which are numpy's ``mean()`` and
    ``var()`` of the returned array.

    Memory: the returned array is the only p x n float64 array this
    function allocates; every step writes into it in place.  Beside it
    live a transient bool mask (1/8 of the input) and the one p x n
    temporary numpy's ``std``/``var`` make, so the peak is at most 2x the
    input's bytes on top of the input.  X itself is never written.
    """
    shape = MatrixShape(*X.shape)
    threshold = _threshold(shape)
    out = np.abs(X)
    mask = out > threshold
    fraction_truncated = float(mask.mean())
    count_truncated = int(np.count_nonzero(mask))
    np.copyto(out, X)
    np.copyto(out, 0.0, where=mask)
    del mask
    scale = float(out.std())
    if scale == 0.0 or not math.isfinite(scale):
        raise DegenerateInputError("zero variance after truncation")
    out -= float(out.mean())
    out /= scale
    out.setflags(write=False)
    report = TruncationReport(
        threshold=threshold,
        fraction_truncated=fraction_truncated,
        count_truncated=count_truncated,
        post_mean=float(out.mean()),
        post_sigma2=float(out.var()),
    )
    return out, report


# ---------------------------------------------------------------------------
# Population covariances.


@dataclass(frozen=True)
class CovarianceSpec:
    """identity | diagonal(d_1..d_p) | toeplitz(rho) | explicit matrix."""

    kind: str
    d: tuple | None = None
    rho: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "identity":
            pass
        elif self.kind == "diagonal":
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
        else:
            raise ValidationError(f"unknown covariance kind {self.kind!r}")

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
            raise ValidationError(f"explicit covariance is {self.matrix.shape[0]}x..., expected {p}")
        return _sym(self.matrix)


_COVARIANCE_FIELDS = {
    "identity": ("kind",),
    "diagonal": ("kind", "d"),
    "toeplitz": ("kind", "rho"),
    "explicit": ("kind", "path"),
}


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
