"""Brute-force references that the tests hold covspectrum against.

The package computes these quantities a faster way, or not at all; here
they are evaluated another way, mostly the obvious one, one circuit or one
jump at a time:

* ``expectation_of_circuit`` -- E of the product of entries along one
  circuit, from its coincidence classes;
* ``circuits`` -- every circuit with indices in [1, p] x [1, n], in
  lexicographic order of (i_1..i_k, j_1..j_k), the order
  ``momentlab.trace_moment_unscaled`` keeps;
* ``orbit_tally`` -- the exact unscaled E tr(B^k) from a numpy tally of
  the star circuits with (i_1, i_2, j_1) = (1, 2, 1), a fast reference for
  the class sum of ``momentlab.trace_moment_unscaled``;
* ``esd_sup_diff`` -- the sup distance of two empirical spectral
  distributions over their merged jump set.
"""

import itertools

import numpy as np

from covspectrum.errors import ValidationError
from covspectrum.momentlab import IndexCircuit, _check_budget, _edges, _expectation_from_counts

# Working-memory target of one numpy chunk in orbit_tally.
CHUNK_BYTES = 2**19


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


def _star_edge_chunks(p: int, n: int, k: int):
    """Edge codes of the star circuits with i_1 = 1, i_2 = 2 and j_1 = 1.

    Yields int32 arrays of shape (2k, c): column x holds the codes
    (i - 1) n + (j - 1) of circuit x's edges e_1, ..., e_2k, so two edges
    coincide exactly when their codes are equal.  Circuits come in
    lexicographic order of (i_1..i_k, j_1..j_k), the order of
    ``circuits``, in chunks of about CHUNK_BYTES.
    i_3, ..., i_k are ranked in mixed radix, each i_{a+1} as one of the
    p - 1 values other than i_a (which keeps lexicographic order), and
    sequences with i_k = i_1 are dropped; j_2, ..., j_k are ranked in
    base n.  That is (p - 1)^(k-2) n^(k-1) index pairs before the star
    filter, and nothing for k < 2 or p < 2, where no star circuit exists.

    Why that suffices: every star circuit has i_1 != i_2, and relabelling
    the I-values by a permutation of [1, p] and the J-values by one of
    [1, n] keeps a circuit's star property and multiplicity pattern.  Such
    relabellings map the circuits with (i_1, i_2, j_1) = (1, 2, 1) one to
    one onto those with any other of the p (p - 1) n admissible triples,
    so each pattern's count over all star circuits is p (p - 1) n times
    its count here.
    """
    if k < 2 or p < 2:
        return
    n_k = n ** (k - 1)
    total = (p - 1) ** (k - 2) * n_k
    step = max(1, CHUNK_BYTES // (24 * k + 64))  # 24k + 64: peak bytes per circuit
    for start in range(0, total, step):
        i_rank, j_rank = np.divmod(np.arange(start, min(start + step, total)), n_k)
        i_seq = np.empty((k, i_rank.size), dtype=np.int64)
        for a in range(k - 1, 1, -1):
            i_rank, i_seq[a] = np.divmod(i_rank, p - 1)
        i_seq[0], i_seq[1] = 0, 1
        for a in range(2, k):
            i_seq[a] += i_seq[a] >= i_seq[a - 1]
        star = i_seq[-1] != i_seq[0]
        i_seq, j_rank = i_seq[:, star], j_rank[star]
        edges = np.empty((2 * k, j_rank.size), dtype=np.int32)
        for a in range(k - 1, -1, -1):
            j_rank, j = np.divmod(j_rank, n)  # j_rank < n^(k-1), so j_1 = 0
            edges[2 * a] = i_seq[a] * n + j
            edges[2 * a + 1] = i_seq[(a + 1) % k] * n + j
        yield edges


def _pattern_codes(edges):
    """One int64 per circuit coding its ordered multiplicity pattern.

    The pattern is the class multiplicities m_1, ..., m_r in
    first-occurrence order, the order ``_expectation_from_counts`` reads
    them.  They sum to 2k, and the code sets bit m_1 + ... + m_t for
    each t, so distinct patterns get distinct codes while 2k < 63 (the
    enumeration budget keeps 2k <= 52 wherever a star circuit exists).
    """
    mult = np.ones(edges.shape, dtype=np.uint8)
    head = np.ones(edges.shape, dtype=bool)
    for b in range(1, len(edges)):
        same = edges[:b] == edges[b]
        mult[:b] += same
        mult[b] += same.sum(axis=0, dtype=np.uint8)
        head[b] = ~same.any(axis=0)
    reached = np.zeros(edges.shape[1], dtype=np.int64)
    codes = np.zeros(edges.shape[1], dtype=np.int64)
    for m, h in zip(mult, head):
        reached += m * h
        codes |= h << reached
    return codes


def _pattern(code: int) -> tuple:
    """The multiplicities a pattern code stands for, in order."""
    ends = [s for s in range(code.bit_length()) if code >> s & 1]
    return tuple(b - a for a, b in zip([0] + ends, ends))


def orbit_tally(p: int, n: int, k: int, moments):
    """``momentlab.trace_moment_unscaled`` by another count: numpy visits the
    star circuits with i_1 = 1, i_2 = 2 and j_1 = 1 and tallies them by
    ordered multiplicity pattern.  Relabelling I- or J-values keeps the
    pattern, so each pattern's count over all star circuits is the exact
    integer p (p - 1) n times its count there (see ``_star_edge_chunks``).
    Each pattern's term is evaluated once, when it first occurs, so the
    value, its type and the first error raised are the circuit loop's.
    """
    _check_budget(p, n, k)
    orbit = p * (p - 1) * n
    terms, counts = {}, {}
    for edges in _star_edge_chunks(p, n, k):
        codes, first, number = np.unique(_pattern_codes(edges), return_index=True, return_counts=True)
        for at in np.argsort(first):
            code = int(codes[at])
            if code not in terms:
                terms[code] = _expectation_from_counts(_pattern(code), moments)
            counts[code] = counts.get(code, 0) + orbit * int(number[at])
    return sum((counts[code] * term for code, term in terms.items()), 0)


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
