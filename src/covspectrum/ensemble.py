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
from fractions import Fraction

import numpy as np

from .errors import ResourceError, ValidationError

__all__ = [
    "DistributionSpec",
    "MatrixShape",
    "SeedSpec",
    "gaussian",
    "distribution_from_json",
    "moment_sequence",
    "sample_matrix",
    "save_matrix",
    "load_matrix",
    "matrix_to_csv",
]

_PARAMETER = {  # the one parameter a kind takes, if any
    "gaussian": None,
    "rademacher": None,
    "uniform-symmetric": None,
    "centered-exponential": None,
    "student-t": "df",
    "two-point": "q",
}
KINDS = tuple(_PARAMETER)

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
        if self.kind not in KINDS:  # a tuple: an unhashable kind is unknown, not a TypeError
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        for name in ("df", "q"):
            if name != _PARAMETER[self.kind] and getattr(self, name) is not None:
                raise ValidationError(f"{self.kind} takes no {name}")
        if self.kind == "student-t" and not (_is_real(self.df) and self.df > 2):
            raise ValidationError("student-t requires a finite number df > 2")
        if self.kind == "two-point" and not (_is_real(self.q) and 0 < self.q < 1):
            raise ValidationError("two-point requires a probability q in (0, 1)")

    def moment(self, order: int) -> float:
        """E[X^order] of the standardized law: ``exact_moment`` rounded once to a
        double, or to +-inf with its sign past the double range."""
        exact = self.exact_moment(order)
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf

    def exact_moment(self, order: int):
        """E[X^order] as an int or Fraction; for two-point, that of the float
        atoms ``sample_matrix`` draws.

        Student-t's moments are math.inf at even orders >= df and math.nan
        at odd ones, where the heavy tails leave them undefined; its moment
        of order 2m is prod_{i=1}^m (2i-1)(df-2)/(df-2i), built from the
        exact ratio df = a/b as one fraction of two integer products.
        """
        if order < 0:
            raise ValidationError("moment order must be >= 0")
        if order <= 2:
            return (1, 0, 1)[order]  # exact by standardization for every kind
        kind = self.kind
        if kind == "student-t":
            if order % 2:
                return 0 if order < self.df else math.nan
            if order >= self.df:
                return math.inf
            (a, b), m = Fraction(self.df).as_integer_ratio(), order // 2
            return Fraction(math.prod(range(1, order, 2)) * (a - 2 * b) ** m, math.prod(a - 2 * i * b for i in range(1, m + 1)))
        if kind == "gaussian":
            return 0 if order % 2 else math.prod(range(order - 1, 0, -2))
        if kind == "rademacher":
            return 1 - order % 2
        if kind == "uniform-symmetric":
            return 0 if order % 2 else Fraction(3 ** (order // 2), order + 1)
        if kind == "centered-exponential":
            return _subfactorial(order)  # E[(E-1)^s] for E ~ Exp(1) is the derangement number D_s
        return sum(Fraction(w) * Fraction(x) ** order for x, w in self.atoms())

    def atoms(self):
        """(value, weight) pairs of the two-point law, lower atom first."""
        if self.kind != "two-point":
            raise ValidationError(f"{self.kind} is not the two-point law")
        x_hi = math.sqrt((1.0 - self.q) / self.q)
        x_lo = -math.sqrt(self.q / (1.0 - self.q))
        return ((x_lo, 1.0 - self.q), (x_hi, self.q))


# perfbench/checks.py samples through this name; the tests build DistributionSpec directly
def gaussian() -> DistributionSpec:
    return DistributionSpec("gaussian")


def distribution_from_json(obj) -> DistributionSpec:
    """Build a DistributionSpec from a dict or a bare kind name."""
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("distribution spec must be a kind name or a dict with 'kind'")
    _reject_unknown(obj, ("kind", "df", "q"), "distribution")
    if obj["kind"] in KINDS and (extra := sorted(set(obj) - {"kind", _PARAMETER[obj["kind"]]})):
        raise ValidationError(f"{obj['kind']} takes no {extra[0]}")  # a JSON null names a parameter too
    return DistributionSpec(obj["kind"], df=obj.get("df"), q=obj.get("q"))


def _subfactorial(s: int) -> int:
    # D_s = s*D_{s-1} + (-1)^s, D_0 = 1
    d = 1
    for i in range(1, s + 1):
        d = i * d + (-1) ** i
    return d


def moment_sequence(spec: DistributionSpec, max_order: int) -> tuple:
    """(m1, ..., m_max_order), each ``exact_moment`` unrounded, for the trace-moment oracles."""
    if max_order < 1:
        raise ValidationError("max_order must be >= 1")
    return tuple(spec.exact_moment(s) for s in range(1, max_order + 1))


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

    Bit-identical for identical inputs.  A shape numpy cannot index is a
    ValidationError, one it cannot allocate a ResourceError.
    """
    if not 0 <= replicate <= _MASK64:  # derive() keeps 64 bits of it
        raise ValidationError("replicate index must be a 64-bit unsigned integer")
    rng = np.random.default_rng(seed.derive(shape.p, shape.n, replicate))
    size = (shape.p, shape.n)
    kind = spec.kind
    try:
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
    except ValueError as exc:  # numpy: "Maximum allowed dimension exceeded"
        raise ValidationError(f"cannot sample a {shape.p} x {shape.n} matrix: {exc}") from exc
    except MemoryError as exc:
        raise ResourceError(f"cannot sample a {shape.p} x {shape.n} matrix: {exc}") from exc
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
        fh.write(memoryview(np.ascontiguousarray(X, dtype="<f8")).cast("B"))  # X's own buffer, no bytes copy


def load_matrix(path) -> np.ndarray:
    """Read a save_matrix file back as a read-only float64 (p, n) array.

    The payload is read into one buffer that the returned array wraps
    without a copy.  A regular file's size is checked against the header
    before that buffer is allocated; a pipe has no size, so it is read in
    chunks of at most ``_READ_CHUNK`` bytes until EOF or the header's
    8 * p * n bytes, and a forged header costs no more memory than the
    stream holds.  Either must end with the payload.
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
        if fh.read(1):  # a header that undercounts its payload would load the wrong matrix
            raise ValidationError(f"{path}: bytes after the matrix payload: the header says {p} x {n} ({size} bytes)")
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
