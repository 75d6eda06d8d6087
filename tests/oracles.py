"""Brute-force references that the tests hold covspectrum against.

The package computes these quantities a faster way, or not at all; here
they are evaluated the obvious way, one circuit or one jump at a time:

* ``expectation_of_circuit`` -- E of the product of entries along one
  circuit, from its coincidence classes;
* ``circuits`` -- every circuit with indices in [1, p] x [1, n], in
  lexicographic order of (i_1..i_k, j_1..j_k), the order
  ``momentlab.trace_moment_unscaled`` keeps;
* ``esd_sup_diff`` -- the sup distance of two empirical spectral
  distributions over their merged jump set.
"""

import itertools

import numpy as np

from covspectrum.errors import ValidationError
from covspectrum.momentlab import IndexCircuit, _edges, _expectation_from_counts


def expectation_of_circuit(circuit: IndexCircuit, moments):
    """E of the product of entries along the circuit.

    Edges are grouped into coincidence classes; independence across
    distinct index pairs factorizes the expectation into a product of
    per-class moments (moments[s-1] = E X^s).
    """
    counts = {}
    for _, iv, jv in _edges(circuit.i_seq, circuit.j_seq):
        counts[(iv, jv)] = counts.get((iv, jv), 0) + 1
    return _expectation_from_counts(counts.values(), moments)


def circuits(p: int, n: int, k: int, star: bool = True):
    """All circuits with indices in [1,p] x [1,n]; star prunes adjacent equals."""
    if k < 1 or p < 1 or n < 1:
        raise ValidationError("p, n, k must be >= 1")
    for i_seq in itertools.product(range(1, p + 1), repeat=k):
        if star and any(i_seq[a] == i_seq[(a + 1) % k] for a in range(k)):
            continue
        for j_seq in itertools.product(range(1, n + 1), repeat=k):
            yield IndexCircuit(k, i_seq, j_seq, star=star)


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
