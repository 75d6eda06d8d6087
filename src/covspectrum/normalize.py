"""Matrix constructions and the truncation/recentering pipeline.

Builds every matrix the analysis needs from a p x n data matrix X, a
float64 ndarray (read-only when it comes from ``ensemble``):

* ``build_A``  -- (X X' - n I) / (2 sqrt(np)), the normalized Gram matrix
  whose spectrum concentrates on [-1, 1];
* ``build_B``  -- the same with the diagonal zeroed;
* ``build_S1`` -- the centered sample covariance (1/n) sum (s_j - sbar)(...)';
* ``build_A1`` -- (1/2) sqrt(n/p) (S1 - I), the centered analogue of A;
* ``build_S2`` -- Sigma^{1/2} S1 Sigma^{1/2} for a population covariance.

``truncation_pipeline`` is the truncation step of the proof, with one
fixed delta = ``default_delta`` = (np)^{-1/8}: entries exceeding
delta * (np)^{1/4} become zero (indicator truncation, not winsorizing),
then the matrix is recentred and rescaled by its own sample mean and sd;
the result is again a read-only (p, n) array.  Every pass runs in place on
that result: beside it the pipeline holds only a transient bool mask and
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
    "identity_cov",
    "diagonal_cov",
    "toeplitz_cov",
    "explicit_cov",
    "covariance_from_json",
    "build_A",
    "build_B",
    "build_S",
    "build_S1",
    "build_A1",
    "default_delta",
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


@dataclass(frozen=True)
class TruncationReport:
    threshold: float
    fraction_truncated: float
    post_mean: float
    post_sigma2: float


def default_delta(shape: MatrixShape) -> float:
    """(np)^{-1/8}: goes to 0 while the threshold (np)^{1/8} grows."""
    return float(shape.n * shape.p) ** (-0.125)


def truncation_pipeline(X):
    """Truncate at default_delta * (np)^{1/4}, then standardize empirically.

    Entries with |x| above the threshold become 0; the kept matrix is
    centred and scaled by its own sample mean and sd, so the output has
    entrywise mean 0 and variance 1 to machine precision.  The report
    gives the threshold, the truncated fraction, and ``post_mean`` and
    ``post_sigma2``, which are numpy's ``mean()`` and ``var()`` of the
    returned array.

    Memory: the returned array is the only p x n float64 array this
    function allocates; every step writes into it in place.  Beside it
    live a transient bool mask (1/8 of the input) and the one p x n
    temporary numpy's ``std``/``var`` make, so the peak is at most 2x the
    input's bytes on top of the input.  X itself is never written.
    """
    shape = MatrixShape(*X.shape)
    threshold = default_delta(shape) * float(shape.n * shape.p) ** 0.25
    out = np.abs(X)
    mask = out > threshold
    fraction_truncated = float(mask.mean())
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
            if np.max(np.abs(m - m.T)) > 1e-10:
                raise ValidationError("explicit covariance must be symmetric")
        else:
            raise ValidationError(f"unknown covariance kind {self.kind!r}")

    def materialize(self, p: int) -> np.ndarray:
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
        return np.array(self.matrix, dtype=float)

    def to_json(self) -> dict:
        if self.kind == "identity":
            return {"kind": "identity"}
        if self.kind == "diagonal":
            return {"kind": "diagonal", "d": list(self.d)}
        if self.kind == "toeplitz":
            return {"kind": "toeplitz", "rho": self.rho}
        raise ValidationError("explicit covariance serializes via a matrix file path")


def identity_cov() -> CovarianceSpec:
    return CovarianceSpec("identity")


def diagonal_cov(d) -> CovarianceSpec:
    return CovarianceSpec("diagonal", d=tuple(d) if np.iterable(d) else d)


def toeplitz_cov(rho: float) -> CovarianceSpec:
    return CovarianceSpec("toeplitz", rho=rho)


def explicit_cov(matrix) -> CovarianceSpec:
    return CovarianceSpec("explicit", matrix=np.asarray(matrix, dtype=float))


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
    if kind == "identity":
        return identity_cov()
    if kind == "diagonal":
        return diagonal_cov(obj.get("d"))
    if kind == "toeplitz":
        return toeplitz_cov(obj.get("rho"))
    if not isinstance(obj.get("path"), str):
        raise ValidationError("explicit covariance needs a 'path' string naming a matrix file")
    return explicit_cov(load_matrix(obj["path"]))


def sqrt_psd(sigma, p: int) -> np.ndarray:
    """Symmetric PSD square root via spectral decomposition."""
    M = sigma.materialize(p) if isinstance(sigma, CovarianceSpec) else np.asarray(sigma, dtype=float)
    if M.shape != (p, p):
        raise ValidationError(f"covariance shape {M.shape} does not match p={p}")
    w, V = np.linalg.eigh(_sym(M))
    if w.min() < -1e-10:
        raise ValidationError(f"covariance is not PSD (min eigenvalue {w.min():.3e})")
    return _sym((V * np.sqrt(np.clip(w, 0.0, None))) @ V.T)


def build_S2(X, sigma) -> np.ndarray:
    """Sigma^{1/2} S1 Sigma^{1/2}: sample covariance of Sigma^{1/2} s_j."""
    root = sqrt_psd(sigma, X.shape[0])
    return _sym(root @ build_S1(X) @ root)
