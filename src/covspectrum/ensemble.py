"""Deterministic generation of i.i.d. data matrices from standardized laws.

A data matrix is a read-only float64 ``(p, n)`` ndarray: ``sample_matrix``
and ``load_matrix`` return one, and every consumer reads p and n from its
``shape``.  Every built-in distribution is standardized in closed form
(location and scale chosen analytically), so the population mean is
exactly 0 and the population variance exactly 1 -- no post-hoc sample
standardization.  Sampling is a pure function of (distribution, shape,
seed, replicate): the per-matrix stream seed is derived by avalanche
mixing, which makes sweeps parallelizable with scheduling-independent
output.
"""

import csv
import math
import numbers
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "DistributionSpec",
    "MatrixShape",
    "SeedSpec",
    "gaussian",
    "rademacher",
    "uniform_symmetric",
    "centered_exponential",
    "student_t",
    "two_point",
    "distribution_from_json",
    "moment_sequence",
    "sample_matrix",
    "save_matrix",
    "load_matrix",
    "matrix_to_csv",
]

KINDS = (
    "gaussian",
    "rademacher",
    "uniform-symmetric",
    "centered-exponential",
    "student-t",
    "two-point",
)

_UNIFORM_HALF_WIDTH = math.sqrt(3.0)  # U[-sqrt(3), sqrt(3)] has variance 1


@dataclass(frozen=True)
class DistributionSpec:
    """A standardized entry distribution with known closed-form moments.

    ``kind`` selects the family; ``df`` parametrizes student-t (df > 2 so
    the variance exists) and ``q`` the two-point law, whose upper atom
    sqrt((1-q)/q) has probability q.
    """

    kind: str
    df: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "student-t":
            if not (_is_real(self.df) and self.df > 2):
                raise ValidationError("student-t requires a finite number df > 2")
        elif self.kind == "two-point":
            if not (_is_real(self.q) and 0 < self.q < 1):
                raise ValidationError("two-point requires a probability q in (0, 1)")
        else:
            if self.df is not None or self.q is not None:
                raise ValidationError(f"{self.kind} takes no parameters")

    def moment(self, order: int) -> float:
        """Population moment E[X^order] of the standardized law.

        Returns math.inf for even orders without a finite moment and
        math.nan for odd orders that are undefined (heavy t tails).  A
        finite moment beyond the double range is +-inf with its true sign;
        one within it is finite, also where the closed form's intermediates
        overflow (two-point with small q or q near 1, student-t with df
        above ~340).
        """
        if order < 0:
            raise ValidationError("moment order must be >= 0")
        if order == 0:
            return 1.0
        if order == 1:
            return 0.0  # exact by standardization for every kind
        if order == 2:
            return 1.0
        kind = self.kind
        if kind == "gaussian":
            return 0.0 if order % 2 else _int_ratio(_double_factorial(order - 1))
        if kind == "rademacher":
            return 0.0 if order % 2 else 1.0
        if kind == "uniform-symmetric":
            if order % 2:
                return 0.0
            return _int_ratio(3 ** (order // 2), order + 1)
        if kind == "centered-exponential":
            # E[(E-1)^s] for E ~ Exp(1) is the derangement number D_s.
            return _int_ratio(_subfactorial(order))
        if kind == "student-t":
            return self._student_t_moment(order)
        # two-point
        (x_lo, w_lo), (x_hi, w_hi) = self.atoms()
        try:
            return w_hi * x_hi**order + w_lo * x_lo**order
        except OverflowError:  # one atom's power leaves the double range, its weighted term may not
            return _weighted_power(w_hi, x_hi, order) + _weighted_power(w_lo, x_lo, order)

    def _student_t_moment(self, order: int) -> float:
        df = self.df
        if order % 2:
            return 0.0 if order < df else math.nan
        if order >= df:
            return math.inf
        # raw even moment of t_df, then rescale by the sd sqrt(df/(df-2))
        try:
            raw = (
                df ** (order / 2)
                * math.gamma((order + 1) / 2)
                * math.gamma((df - order) / 2)
                / (math.sqrt(math.pi) * math.gamma(df / 2))
            )
            return raw / (df / (df - 2.0)) ** (order / 2)
        except OverflowError:
            # The gamma ratios telescope: E X^(2m) = prod_{i=1}^m (2i-1)(df-2)/(df-2i).
            # Every factor is >= 1, so the product overflows to inf only with the moment.
            out = 1.0
            for i in range(1, order // 2 + 1):
                out *= (2 * i - 1) * (df - 2.0) / (df - 2 * i)
            return out

    def atoms(self):
        """(value, weight) pairs of the two-point law, lower atom first."""
        if self.kind != "two-point":
            raise ValidationError(f"{self.kind} is not the two-point law")
        x_hi = math.sqrt((1.0 - self.q) / self.q)
        x_lo = -math.sqrt(self.q / (1.0 - self.q))
        return ((x_lo, 1.0 - self.q), (x_hi, self.q))

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "student-t":
            out["df"] = self.df
        elif self.kind == "two-point":
            out["q"] = self.q
        return out


def gaussian() -> DistributionSpec:
    return DistributionSpec("gaussian")


def rademacher() -> DistributionSpec:
    return DistributionSpec("rademacher")


def uniform_symmetric() -> DistributionSpec:
    return DistributionSpec("uniform-symmetric")


def centered_exponential() -> DistributionSpec:
    return DistributionSpec("centered-exponential")


def student_t(df: float) -> DistributionSpec:
    return DistributionSpec("student-t", df=df)


def two_point(q: float) -> DistributionSpec:
    return DistributionSpec("two-point", q=q)


def distribution_from_json(obj) -> DistributionSpec:
    """Build a DistributionSpec from a dict or a bare kind name."""
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("distribution spec must be a kind name or a dict with 'kind'")
    _reject_unknown(obj, ("kind", "df", "q"), "distribution")
    return DistributionSpec(obj["kind"], df=obj.get("df"), q=obj.get("q"))


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _int_ratio(num: int, den: int = 1) -> float:
    """num / den (den > 0) correctly rounded, or +-inf beyond the double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _weighted_power(w: float, x: float, order: int) -> float:
    """w * x**order for w > 0, or +-inf beyond the double range.

    The mantissas and the binary exponents are multiplied apart, so no
    step overflows before the final scaling.
    """
    mant, exp = math.frexp(w)
    x_mant, x_exp = math.frexp(abs(x))
    left = order
    while left:
        step = min(left, 512)  # x_mant**512 >= 2**-512 stays a normal double
        mant, e = math.frexp(mant * x_mant**step)
        exp += e + x_exp * step
        left -= step
    sign = -1.0 if x < 0 and order % 2 else 1.0
    try:
        return sign * math.ldexp(mant, exp)
    except OverflowError:
        return sign * math.inf


def _subfactorial(s: int) -> int:
    # D_s = s*D_{s-1} + (-1)^s, D_0 = 1
    d = 1
    for i in range(1, s + 1):
        d = i * d + (-1) ** i
    return d


def moment_sequence(spec: DistributionSpec, max_order: int) -> tuple:
    """(m1, ..., m_max_order) as needed by the trace-moment oracles."""
    if max_order < 1:
        raise ValidationError("max_order must be >= 1")
    return tuple(spec.moment(s) for s in range(1, max_order + 1))


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true/false must not pass as 1/0)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_unknown(obj: dict, known, what: str) -> None:
    """A JSON spec key outside known is a typo, never silently ignored."""
    extra = set(obj) - set(known)
    if extra:
        raise ValidationError(f"unknown {what} fields {sorted(extra)}")


def _is_real(value) -> bool:
    """A finite real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class MatrixShape:
    """Dimension p and sample count n of a p x n data matrix."""

    p: int
    n: int

    def __post_init__(self):
        if not (_is_int(self.p) and self.p >= 1):
            raise ValidationError("p must be a positive integer")
        if not (_is_int(self.n) and self.n >= 1):
            raise ValidationError("n must be a positive integer")


_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the deterministic per-run derivation rule."""

    master_seed: int

    def __post_init__(self):
        if not _is_int(self.master_seed) or not 0 <= self.master_seed <= _MASK64:
            raise ValidationError("master_seed must be a 64-bit unsigned integer")

    def derive(self, p: int, n: int, replicate: int) -> int:
        """64-bit stream seed for one (p, n, replicate) cell.

        Avalanche mixing guarantees distinct replicates get unrelated
        streams regardless of scheduling order.
        """
        h = self.master_seed
        for field_value in (p, n, replicate):
            h = _splitmix64(h ^ _splitmix64(field_value & _MASK64))
        return h


def sample_matrix(
    spec: DistributionSpec, shape: MatrixShape, seed: SeedSpec, replicate: int = 0
) -> np.ndarray:
    """Draw p*n i.i.d. standardized entries as a read-only (p, n) array.

    Bit-identical for identical inputs.
    """
    if not 0 <= replicate <= _MASK64:  # derive() keeps 64 bits of it
        raise ValidationError("replicate index must be a 64-bit unsigned integer")
    rng = np.random.default_rng(seed.derive(shape.p, shape.n, replicate))
    size = (shape.p, shape.n)
    kind = spec.kind
    if kind == "gaussian":
        entries = rng.standard_normal(size)
    elif kind == "rademacher":
        entries = rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    elif kind == "uniform-symmetric":
        entries = rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=size)
    elif kind == "centered-exponential":
        entries = rng.standard_exponential(size) - 1.0
    elif kind == "student-t":
        entries = rng.standard_t(spec.df, size=size) / math.sqrt(spec.df / (spec.df - 2.0))
    else:  # two-point
        (x_lo, w_lo), (x_hi, _) = spec.atoms()
        entries = np.where(rng.random(size=size) < w_lo, x_lo, x_hi)
    entries.setflags(write=False)
    return entries


# ---------------------------------------------------------------------------
# Matrix file formats: self-describing binary and CSV interop.

_MAGIC = b"COVSPEC-MAT-v01\n"  # 16 bytes, magic + version
_READ_CHUNK = 1 << 20


def save_matrix(X: np.ndarray, path) -> None:
    """Binary dump: 16-byte header, p and n as u64 LE, then row-major f64 LE."""
    p, n = X.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", p, n))
        fh.write(np.ascontiguousarray(X, dtype="<f8").tobytes())


def load_matrix(path) -> np.ndarray:
    """Read a save_matrix file back as a read-only float64 (p, n) array.

    The payload is read into one buffer that the returned array wraps
    without a copy.  A regular file's size is checked against the header
    before that buffer is allocated; a pipe has no size, so it is read in
    chunks of at most ``_READ_CHUNK`` bytes until EOF or the header's
    8 * p * n bytes, and a forged header costs no more memory than the
    stream holds.
    """
    with open(path, "rb") as fh:
        magic = fh.read(16)
        if magic != _MAGIC:
            raise ValidationError(f"{path}: not a covspectrum matrix file")
        header = fh.read(16)
        if len(header) != 16:
            raise ValidationError(f"{path}: truncated matrix header")
        p, n = struct.unpack("<QQ", header)
        MatrixShape(p, n)  # p, n >= 1
        size = 8 * p * n
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            left = info.st_size - fh.tell()
            if size > left:  # checked before the read, so a forged header asks for no memory
                raise ValidationError(
                    f"{path}: truncated matrix payload: the header says {p} x {n} "
                    f"({size} bytes), the file holds {left}"
                )
            raw = bytearray(size)
            got = fh.readinto(raw)
        else:  # a pipe has no size to check against
            raw = bytearray()
            while len(raw) < size and (chunk := fh.read(min(_READ_CHUNK, size - len(raw)))):
                raw += chunk
            got = len(raw)
        if got != size:
            raise ValidationError(f"{path}: truncated matrix payload")
    entries = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False).reshape(p, n)
    if not np.isfinite(entries).all():
        raise ValidationError(f"{path}: matrix has non-finite entries")
    entries.setflags(write=False)
    return entries


def matrix_to_csv(X: np.ndarray, path) -> None:
    """CSV export, one line per matrix row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in X:
            writer.writerow([repr(float(v)) for v in row])
