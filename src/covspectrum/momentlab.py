"""Exact combinatorial oracles for the trace-moment machinery.

A circuit of length k is a pair of index sequences (i_1..i_k, j_1..j_k).
It induces 2k directed edges between an I-line and a J-line:

    e_{2a-1} = i_a j_a   (column edge),
    e_{2a}   = j_a i_{a+1}  (row edge, with i_{k+1} = i_1).

Vertices on different lines never coincide even when their integer values
agree; two edges coincide when they share the same unordered end set.
A circuit is a W-graph when every edge coincides with at least one other;
with centered entries these are the only circuits whose expectation
survives.

Edges are classified by first-traversal order: innovations (first edges
to reach a new vertex; column innovations split into T11/T12 by whether
the following row edge is also an innovation), T3 edges (first repeats of
innovations, regular or irregular), and T4 edges (everything else), whose
first appearances are the T2 edges (T21 when the class is headed by an
innovation, T22 otherwise).

On top of the classification the module offers an exact trace-moment
evaluator (a sum over relabelling classes: each star circuit whose I- and
J-labels appear in first-use order stands for perm(p, #I) perm(n, #J)
circuits with its ordered class multiplicities; one exact sum weights
each multiplicity pattern's exact moment product by its count and is
rounded once when scaled, odd k then dividing by sqrt(np)),
a canonical W-graph enumerator with isomorphism-class sizes, a log-space
evaluator of the sextuple-sum upper bound on E tr(B^k), and a
feasibility checker for the h/k proof schedules.  The bound sums its
innermost pair (mu, mu1) in closed form and its t-sum once per l, so it
costs O(k^3) log-terms in plain ``math`` instead of the sextuple sum's
O(k^6); the schedule checker returns a plain JSON-ready dict.
"""

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction

from .ensemble import DistributionSpec, _is_int, _reject_unknown, moment_sequence
from .errors import ResourceError, ValidationError

__all__ = [
    "EdgeLabel",
    "IndexCircuit",
    "GraphStats",
    "classify",
    "classify_json",
    "trace_moment_unscaled",
    "exact_trace_moment",
    "law_trace_moment",
    "enumerate_canonical",
    "isomorphism_class_size",
    "bound_rhs_a13",
    "check_schedule",
]

ENUMERATION_BUDGET = 10**8
BOUND_TERM_BUDGET = 2 * 10**7
CANONICAL_K_LIMIT = 5

# Finite-scale stand-ins for the asymptotic schedule conditions: a
# "-> infinity" quantity passes when >= LARGE_MIN, a "-> 0" quantity
# when <= SMALL_MAX.  Diagnostic only, not a guarantee.
LARGE_MIN = 10.0
SMALL_MAX = 1.0


class EdgeLabel(str, Enum):
    T11 = "column-innovation-T11"
    T12 = "column-innovation-T12"
    ROW_INNOVATION = "row-innovation"
    T3_REGULAR = "T3-regular"
    T3_IRREGULAR = "T3-irregular"
    T21 = "T21"
    T22 = "T22"
    T4_OTHER = "T4-other"


@dataclass(frozen=True)
class IndexCircuit:
    """k, the I-sequence, the J-sequence, and whether the circuit is
    required to satisfy the adjacency constraint i_1 != i_2, ..., i_k != i_1."""

    k: int
    i_seq: tuple
    j_seq: tuple
    star: bool = False

    def __post_init__(self):
        if not (_is_int(self.k) and self.k >= 1):
            raise ValidationError("k must be an integer >= 1")
        if len(self.i_seq) != self.k or len(self.j_seq) != self.k:
            raise ValidationError("i_seq and j_seq must both have length k")
        if not all(_is_int(v) and v >= 1 for v in self.i_seq + self.j_seq):
            raise ValidationError("indices must be integers >= 1")
        if self.star and any(
            self.i_seq[a] == self.i_seq[(a + 1) % self.k] for a in range(self.k)
        ):
            raise ValidationError("star circuit has equal cyclically adjacent I-indices")

    def to_json(self) -> dict:
        return {"k": self.k, "i": list(self.i_seq), "j": list(self.j_seq)}

    @classmethod
    def from_json(cls, obj) -> "IndexCircuit":
        if not isinstance(obj, dict):
            raise ValidationError("circuit JSON must be an object with 'k', 'i' and 'j'")
        _reject_unknown(obj, ("k", "i", "j"), "circuit")
        try:
            return cls(obj["k"], tuple(obj["i"]), tuple(obj["j"]))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed circuit JSON: {exc}") from exc


@dataclass(frozen=True)
class GraphStats:
    """Counts of the full edge taxonomy for one circuit.

    l innovations split into r row and c column ones; r1 of the column
    innovations are T11.  t counts T2 edges, mu of them T21 and mu1 the
    T21s whose class contains no further T4 edge.  n_i are the T4 counts
    of the T21-carrying innovation classes, m_j the sizes of the
    T22-headed coincidence classes.
    """

    k: int
    l: int
    r: int
    c: int
    r1: int
    t: int
    mu: int
    mu1: int
    n_i: tuple
    m_j: tuple
    is_W: bool
    is_canonical: bool


def _edges(i_seq, j_seq):
    """(is_col, ivalue, jvalue) in traversal order e_1, ..., e_2k."""
    k = len(i_seq)
    out = []
    for a in range(k):
        out.append((True, i_seq[a], j_seq[a]))
        out.append((False, i_seq[(a + 1) % k], j_seq[a]))
    return out


def _is_canonical(i_seq, j_seq) -> bool:
    if i_seq[0] != 1 or j_seq[0] != 1:
        return False
    imax, jmax = 1, 1
    for a in range(1, len(i_seq)):
        if i_seq[a] > imax + 1 or j_seq[a] > jmax + 1:
            return False
        imax = max(imax, i_seq[a])
        jmax = max(jmax, j_seq[a])
    return True


def classify(circuit: IndexCircuit):
    """Label every edge and aggregate the taxonomy counts.

    Returns (labels, stats) where labels[m] is the EdgeLabel of e_{m+1}.
    """
    k = circuit.k
    edges = _edges(circuit.i_seq, circuit.j_seq)

    # First pass: innovations = edges whose terminal vertex is new.
    seen_i = {circuit.i_seq[0]}
    seen_j = set()
    innovation = [False] * (2 * k)
    for pos, (is_col, iv, jv) in enumerate(edges):
        if is_col:
            if jv not in seen_j:
                innovation[pos] = True
                seen_j.add(jv)
        else:
            if iv not in seen_i:
                innovation[pos] = True
                seen_i.add(iv)

    # Coincidence classes: same unordered end set == same (i, j) value.
    class_positions = {}
    for pos, (_, iv, jv) in enumerate(edges):
        class_positions.setdefault((iv, jv), []).append(pos)
    is_w = all(len(ps) >= 2 for ps in class_positions.values())

    labels = [None] * (2 * k)
    t3_positions = []
    n_i = []
    m_j = []
    # Iterate classes by head position so n_i / m_j follow traversal order.
    for value, positions in sorted(class_positions.items(), key=lambda kv: kv[1][0]):
        head = positions[0]
        if innovation[head]:
            if len(positions) >= 2:
                t3_positions.append(positions[1])
            if len(positions) >= 3:
                labels[positions[2]] = EdgeLabel.T21
                n_i.append(len(positions) - 2)
                for pos in positions[3:]:
                    labels[pos] = EdgeLabel.T4_OTHER
        else:
            labels[head] = EdgeLabel.T22
            m_j.append(len(positions))
            for pos in positions[1:]:
                labels[pos] = EdgeLabel.T4_OTHER

    # Innovation labels; a column innovation is T11 iff the row edge that
    # follows it is a row innovation.
    for pos in range(2 * k):
        if not innovation[pos]:
            continue
        is_col = edges[pos][0]
        if not is_col:
            labels[pos] = EdgeLabel.ROW_INNOVATION
        else:
            labels[pos] = EdgeLabel.T11 if innovation[pos + 1] else EdgeLabel.T12

    # Regular vs irregular T3: replay the traversal and count innovations
    # sharing the T3 edge's initial vertex that are still single.
    for q in t3_positions:
        is_col, iv, jv = edges[q]
        v = ("I", iv) if is_col else ("J", jv)
        count = 0
        for x in range(q):
            if not innovation[x]:
                continue
            _, xi, xj = edges[x]
            if v not in (("I", xi), ("J", xj)):
                continue
            members = class_positions[(xi, xj)]
            if bisect_right(members, q - 1) == 1:  # single up to e_{q-1}
                count += 1
        labels[q] = EdgeLabel.T3_REGULAR if count > 1 else EdgeLabel.T3_IRREGULAR

    row_innov = sum(1 for pos in range(2 * k) if labels[pos] is EdgeLabel.ROW_INNOVATION)
    col_innov = sum(
        1 for pos in range(2 * k) if labels[pos] in (EdgeLabel.T11, EdgeLabel.T12)
    )
    stats = GraphStats(
        k=k,
        l=row_innov + col_innov,
        r=row_innov,
        c=col_innov,
        r1=sum(1 for lab in labels if lab is EdgeLabel.T11),
        t=sum(1 for lab in labels if lab in (EdgeLabel.T21, EdgeLabel.T22)),
        mu=sum(1 for lab in labels if lab is EdgeLabel.T21),
        mu1=sum(1 for v in n_i if v == 1),
        n_i=tuple(n_i),
        m_j=tuple(m_j),
        is_W=is_w,
        is_canonical=_is_canonical(circuit.i_seq, circuit.j_seq),
    )
    return labels, stats


def classify_json(circuit: IndexCircuit) -> dict:
    labels, stats = classify(circuit)
    out = circuit.to_json()
    out["labels"] = [lab.value for lab in labels]
    out["stats"] = asdict(stats)
    return out


# ---------------------------------------------------------------------------
# Expectations and exact trace moments.


def _expectation_from_counts(multiplicities, moments):
    """Exact product of the moments E X^m over an iterable of edge
    multiplicities m; a float moment is read exactly as a Fraction."""
    term = 1
    for mult in multiplicities:
        if mult > len(moments):
            raise ValidationError(f"need moments up to order {mult}, got only {len(moments)}")
        m = moments[mult - 1]
        if isinstance(m, float) and not math.isfinite(m):
            raise ValidationError(f"moment of order {mult} is not finite")
        term = term * (Fraction(m) if isinstance(m, float) else m)
        if term == 0:
            return term
    return term


def _check_budget(p: int, n: int, k: int) -> None:
    """p, n, k >= 1 and at most ENUMERATION_BUDGET nominal circuits (pn)^k.

    Decided in ints, without building a large power: for pn >= 2 and
    k >= ENUMERATION_BUDGET.bit_length(), (pn)^k >= 2^k > ENUMERATION_BUDGET.
    The message prints p, n and k as given, not their product, which may
    pass the digit limit of Python's int-to-str conversion.
    """
    if k < 1 or p < 1 or n < 1:
        raise ValidationError("p, n, k must be >= 1")
    if p * n == 1 or (k < ENUMERATION_BUDGET.bit_length() and (p * n) ** k <= ENUMERATION_BUDGET):
        return
    raise ResourceError(f"(p*n)^k = ({p}*{n})^{k} exceeds the {ENUMERATION_BUDGET:.0e} term budget")


def trace_moment_unscaled(p: int, n: int, k: int, moments):
    """Exact sum over star circuits of the factorized expectation (no scaling).

    A circuit's expectation depends on its ordered multiplicity pattern
    alone: the class multiplicities in first-traversal order, the order
    ``_expectation_from_counts`` reads them.  Relabelling I- or J-values
    keeps the pattern, so the sum runs over the canonical star circuits
    only, those whose I- and J-labels appear in first-use order, and
    weights each by the size of its relabelling class,
    perm(p, #I) perm(n, #J).  Each edge multiplicity is added as j_a
    closes the edges i_a j_a and j_a i_{a+1}.  At n = 1 the one J-sequence
    is all zeros, so an I-sequence with m labels has the pattern
    (2 c_0, ..., 2 c_{m-1}), c_l the uses of label l, and weight perm(p, m):
    it is tallied at once, with no walk over the J-values.

    Each pattern's term is evaluated once, when it first occurs.  The
    canonical circuits come in lexicographic order of (i_1..i_k,
    j_1..j_k), the order in which the brute-force reference in
    tests/oracles.py sums every circuit one by one, and the
    lexicographically first circuit of each pattern is canonical (first-use
    relabelling never makes a circuit later).  So every pattern first
    occurs in the loop's order, and the first error raised is the loop's.
    Every term is an exact product (a float moment is read as a
    Fraction), so the weighted sum is the exact int or Fraction, rounded
    nowhere.
    """
    _check_budget(p, n, k)
    if p < 2 or k < 2:
        return 0
    terms, counts = {}, {}
    i_seq = [0] * (k + 1)  # labels from 0; i_seq[k] = i_seq[0] closes the circuit
    mult = [0] * (k * k)  # multiplicity of the edge with labels (i, j) at i k + j
    order = []  # the edges met so far, in first-traversal order
    uses = [1] + [0] * (k - 1)  # uses of each I-label in i_1..i_a

    def tally(pattern, weight):
        if pattern not in terms:
            terms[pattern] = _expectation_from_counts(pattern, moments)
        counts[pattern] = counts.get(pattern, 0) + weight

    def choose_i(a, i_labels):
        if a == k:
            if not i_seq[k - 1]:  # i_k = i_1
                return
            if n == 1:
                tally(tuple(2 * c for c in uses[:i_labels]), math.perm(p, i_labels))
            else:
                close_j(0, 0, math.perm(p, i_labels))
            return
        for iv in range(min(i_labels + 1, p)):
            if iv != i_seq[a - 1]:
                i_seq[a] = iv
                uses[iv] += 1
                choose_i(a + 1, i_labels + (iv == i_labels))
                uses[iv] -= 1

    def close_j(a, j_labels, weight):
        if a == k:
            tally(tuple([mult[e] for e in order]), weight)
            return
        for jv in range(min(j_labels + 1, n)):
            edges = (i_seq[a] * k + jv, i_seq[a + 1] * k + jv)  # distinct: i_a != i_{a+1}
            for e in edges:
                if not mult[e]:
                    order.append(e)
                mult[e] += 1
            if jv < j_labels:
                close_j(a + 1, j_labels, weight)
            else:
                close_j(a + 1, j_labels + 1, weight * (n - j_labels))
            for e in reversed(edges):
                mult[e] -= 1
                if not mult[e]:
                    order.pop()

    choose_i(1, 1)
    return sum((counts[pattern] * term for pattern, term in terms.items()), 0)


def exact_trace_moment(p: int, n: int, k: int, moments) -> float:
    """E tr(B^k) by enumeration: (2 sqrt(np))^{-k} * unscaled sum.

    The unscaled sum visits one star circuit per relabelling class and
    weights it by the class size; the budget still caps the nominal
    (pn)^k.

    The exact unscaled sum is divided exactly by the integer
    2^k (np)^{floor(k/2)} and rounded once to a double, or to +-inf with
    its sign past the double range; so an even-k moment is rounded only
    there.  Odd k then divides by the float sqrt(np).  At p < 2 or k < 2
    no star circuit exists, so 0.0 is returned without building the
    divisor, whose size the budget does not bound at p = n = 1.
    """
    unscaled = trace_moment_unscaled(p, n, k, moments)
    if p < 2 or k < 2:
        return 0.0
    try:
        value = float(Fraction(unscaled, 2**k * (n * p) ** (k // 2)))
    except OverflowError:
        value = math.inf if unscaled > 0 else -math.inf
    return value / math.sqrt(n * p) if k % 2 else value


def law_trace_moment(dist: DistributionSpec, p: int, n: int, k: int) -> float:
    """E tr(B^k) for entries of law ``dist``, as ``moments exact`` prints and
    ``moment_check`` records it; the budget is checked before the 2k moments,
    which are not built at p < 2 or k < 2, where no star circuit exists."""
    _check_budget(p, n, k)
    if p < 2 or k < 2:
        return 0.0
    return exact_trace_moment(p, n, k, moment_sequence(dist, 2 * k))


# ---------------------------------------------------------------------------
# Canonical W-graph enumeration.


def enumerate_canonical(k: int, star: bool = False):
    """Yield one canonical representative per W-graph isomorphism class.

    Canonical means every new I/J vertex takes the smallest unused label
    (i_1 = j_1 = 1, i_a <= max(i_1..i_{a-1}) + 1, same for j).
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > CANONICAL_K_LIMIT:
        raise ResourceError(f"canonical enumeration is guarded to k <= {CANONICAL_K_LIMIT}")

    def rec(a, i_seq, j_seq, imax, jmax):
        if a == k:
            if star and i_seq[-1] == i_seq[0]:
                return
            circuit = IndexCircuit(k, tuple(i_seq), tuple(j_seq), star=star)
            _, stats = classify(circuit)
            if stats.is_W:
                yield circuit
            return
        # a new vertex takes label max + 1, so i_1 = j_1 = 1 (imax = jmax = 0 at a = 0)
        for iv in range(1, imax + 2):
            if star and a > 0 and iv == i_seq[-1]:
                continue
            for jv in range(1, jmax + 2):
                yield from rec(
                    a + 1, i_seq + [iv], j_seq + [jv], max(imax, iv), max(jmax, jv)
                )

    yield from rec(0, [], [], 0, 0)


def isomorphism_class_size(circuit: IndexCircuit, p: int, n: int) -> int:
    """p(p-1)...(p-r) * n(n-1)...(n-c+1): choices of actual index values.

    The falling factorials run over the distinct I-vertex and J-vertex
    counts; they vanish when the circuit needs more distinct indices than
    p or n provide.
    """
    return math.perm(p, len(set(circuit.i_seq))) * math.perm(n, len(set(circuit.j_seq)))


# ---------------------------------------------------------------------------
# The sextuple-sum upper bound on E tr(B^k).


def _log_binom(logfact, a: int, b: int) -> float:
    return logfact[a] - logfact[b] - logfact[a - b]


def _log_sum_exp(logs) -> float:
    """log(sum(exp(x))), shifted by the maximum and summed with fsum."""
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def bound_rhs_a13(p: int, n: int, k: int, delta: float) -> float:
    """Sextuple-sum upper bound on E tr(B^k), evaluated in log space.

    2^{-k} sum over (l, r, r1, t, mu, mu1) of
        C(k,r) C(r,r1) C(k-r1, l-r-r1) C(2k-l, l)
        * (p/n)^{(r-r1)/2} * p^{-t/2} * p * k^{3t} * (t+1)^{6k-6l}
        * delta^{2k-2l-2t+mu1}.

    mu enters only as the upper limit of mu1, so the inner pair sums in
    closed form, sum_{0<=mu1<=mu<=t} delta^{mu1} = sum_{j=0}^{t} (t+1-j)
    delta^j =: w_t, leaving a quadruple sum over (l, r, r1, t) with
    delta^{mu1} replaced by w_t.  The range of t and every t-dependent
    factor depend on l alone, so the t-sum is done once per l and
    multiplies the (r, r1) sum.

    The chain that produces this bound replaces per-class moment caps by
    k^t, which is only valid once k exceeds max(EX^4, |EX^3|); callers
    comparing against exact trace moments at small k should keep that
    caveat in mind.
    """
    if k < 1 or p < 1 or n < 1:
        raise ValidationError("p, n, k must be >= 1")
    if not (delta > 0 and math.isfinite(delta)):
        raise ValidationError("delta must be a finite number > 0")
    # terms summed: j for each w_t (t <= 2k-2), then per l the 2(k-l)+1
    # t-terms and the (r, r1) pairs, min(r, l-r) + 1 of them for each r,
    # l^2//4 + l in all; over l = 1..k, l^2//4 sums to k(k+2)(2k-1)//24
    n_terms = k * (2 * k - 1) + k * (k + 2) * (2 * k - 1) // 24 + k * (2 * k + 1) - k * (k + 1) // 2
    if n_terms > BOUND_TERM_BUDGET:
        raise ResourceError(f"bound terms at k = {k} exceed the {BOUND_TERM_BUDGET} budget")
    logfact = [0.0] * (2 * k + 1)
    for m in range(2, 2 * k + 1):
        logfact[m] = logfact[m - 1] + math.log(m)
    lp, ln, ld = math.log(p), math.log(n), math.log(delta)
    lk = math.log(k)
    log_w = [_log_sum_exp([math.log(t + 1 - j) + j * ld for j in range(t + 1)]) for t in range(2 * k - 1)]
    per_l = []
    for l in range(1, k + 1):
        t_sum = _log_sum_exp(
            [
                -0.5 * t * lp
                + 3 * t * lk
                + (6 * k - 6 * l) * math.log(t + 1)
                + (2 * k - 2 * l - 2 * t) * ld
                + log_w[t]
                for t in range(2 * k - 2 * l + 1)
            ]
        )
        # r1 <= l - r keeps the T12 count l - r - r1 >= 0; it is <= k - r1 since l <= k
        pair_sum = _log_sum_exp(
            [
                _log_binom(logfact, k, r)
                + _log_binom(logfact, r, r1)
                + _log_binom(logfact, k - r1, l - r - r1)
                + 0.5 * (r - r1) * (lp - ln)
                for r in range(1, l + 1)
                for r1 in range(min(r, l - r) + 1)
            ]
        )
        per_l.append(_log_binom(logfact, 2 * k - l, l) + pair_sum + t_sum)
    total = _log_sum_exp(per_l) + lp - k * math.log(2.0)
    if total > math.log(1.7976931348623157e308):
        raise ResourceError(f"bound exceeds the largest double: its natural log is {total:.6g}")
    return math.exp(total)


# ---------------------------------------------------------------------------
# Proof-schedule feasibility diagnostics.


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def check_schedule(p, delta: float, C1: float = 2.0) -> dict:
    """Evaluate both proof schedules at concrete (p, delta) with h = kk = ceil(log^2 p).

    h-schedule: h/log p large, delta^2 h/log p small, delta^4 p / C1 >= sqrt(p).
    k-schedule: kk/log p large, delta^{1/3} kk/log p small, delta^2 p^{1/4} >= kk^3.

    The growth/decay conditions are asymptotic; the pass/fail verdicts use
    the finite-scale thresholds LARGE_MIN and SMALL_MAX and are diagnostic,
    not a guarantee.  C1 is the second moment of X^2 - 1 (2.0 for gaussian).
    Returns the parameters, one {name, value, passed} per condition (a value
    too large for a double is inf; the CLI prints null) and the verdicts.
    """
    if not p >= 2:
        raise ValidationError("p must be >= 2")
    if not (delta > 0 and math.isfinite(delta)):
        raise ValidationError("delta must be a finite number > 0")
    if not (C1 > 0 and math.isfinite(C1)):
        raise ValidationError("C1 must be a finite number > 0")
    logp = math.log(p)
    h = kk = math.ceil(logp * logp)
    ld = math.log(delta)
    # ratios evaluated in log space so very large synthetic p cannot overflow
    h_tail_gap = 4 * ld + logp - math.log(C1) - 0.5 * logp
    k_power_gap = 2 * ld + 0.25 * logp - 3 * math.log(kk)
    conditions = [
        ("h_growth", h / logp, h / logp >= LARGE_MIN),
        ("h_delta", delta * delta * h / logp, delta * delta * h / logp <= SMALL_MAX),
        ("h_tail", _safe_exp(h_tail_gap), h_tail_gap >= 0.0),
        ("k_growth", kk / logp, kk / logp >= LARGE_MIN),
        ("k_delta", delta ** (1.0 / 3.0) * kk / logp, delta ** (1.0 / 3.0) * kk / logp <= SMALL_MAX),
        ("k_power", _safe_exp(k_power_gap), k_power_gap >= 0.0),
    ]
    return {
        "h": h,
        "kk": kk,
        "delta": delta,
        "p": p,
        "C1": C1,
        "conditions": [
            {"name": name, "value": value, "passed": passed}
            for name, value, passed in conditions
        ],
        "h_feasible": all(passed for name, _, passed in conditions if name.startswith("h_")),
        "k_feasible": all(passed for name, _, passed in conditions if name.startswith("k_")),
        "feasible": all(passed for _, _, passed in conditions),
    }
