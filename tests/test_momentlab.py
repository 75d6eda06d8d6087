"""Tests for circuit classification, trace-moment oracles, and bounds."""

import itertools
import json
import math
import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covspectrum import momentlab
from covspectrum.ensemble import DistributionSpec, moment_sequence
from covspectrum.errors import ResourceError, ValidationError
from covspectrum.momentlab import (
    EdgeLabel,
    IndexCircuit,
    _check_budget,
    _expectation_from_counts,
    bound_rhs_a13,
    check_schedule,
    classify,
    classify_json,
    enumerate_canonical,
    exact_trace_moment,
    isomorphism_class_size,
    law_trace_moment,
    trace_moment_unscaled,
)

from oracles import _star_edge_chunks, circuits, expectation_of_circuit, orbit_tally

RADEMACHER_MOMENTS = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
GAUSSIAN_MOMENTS = (0.0, 1.0, 0.0, 3.0, 0.0, 15.0)


def _m1_third_moments(order):
    """E X^s, s = 1..order, of the law P(X = 2) = 4/9, P(X = -1) = 5/9: m1 = 1/3."""
    return tuple(Fraction(4, 9) * 2**s + Fraction(5, 9) * (-1) ** s for s in range(1, order + 1))


def _label_counts(labels):
    out = {}
    for lab in labels:
        out[lab] = out.get(lab, 0) + 1
    return out


def _star_i_tuples(p, k):
    """Lexicographic I-sequences with i_a != i_{a+1} cyclically; prefixes
    with equal neighbours are pruned rather than filtered out of p^k."""

    def extend(prefix):
        if len(prefix) == k:
            if prefix[-1] != prefix[0]:
                yield tuple(prefix)
            return
        for iv in range(1, p + 1):
            if iv != prefix[-1]:
                yield from extend(prefix + [iv])

    for i1 in range(1, p + 1):
        yield from extend([i1])


def _loop_terms(p, n, k, moments):
    """One factorized expectation per star circuit, in lexicographic order:
    the per-circuit loop trace_moment_unscaled ran before it tallied
    circuits by multiplicity pattern."""
    wrap = list(range(1, k)) + [0]
    for i_seq in _star_i_tuples(p, k):
        i_next = tuple(i_seq[w] for w in wrap)
        for j_seq in itertools.product(range(1, n + 1), repeat=k):
            counts = {}
            for a in range(k):
                e1 = (i_seq[a], j_seq[a])
                counts[e1] = counts.get(e1, 0) + 1
                e2 = (i_next[a], j_seq[a])
                counts[e2] = counts.get(e2, 0) + 1
            yield _expectation_from_counts(counts.values(), moments)


def _loop_sum(terms):
    """The loop's sum, exact: every term is an int or Fraction, float moments included."""
    return sum(terms, 0)


class TestCircuitValidation:
    def test_lengths_must_match_k(self):
        with pytest.raises(ValidationError):
            IndexCircuit(2, (1,), (1, 1))

    def test_star_constraint_enforced(self):
        with pytest.raises(ValidationError):
            IndexCircuit(2, (1, 1), (1, 2), star=True)
        with pytest.raises(ValidationError):
            IndexCircuit(1, (1,), (1,), star=True)  # i_1 != i_1 is impossible
        IndexCircuit(2, (1, 2), (1, 2), star=True)  # fine

    def test_positive_integer_indices(self):
        with pytest.raises(ValidationError):
            IndexCircuit(1, (0,), (1,))

    def test_json_round_trip(self):
        c = IndexCircuit(2, (1, 2), (1, 1))
        assert IndexCircuit.from_json(c.to_json()) == c
        with pytest.raises(ValidationError):
            IndexCircuit.from_json({"k": 2, "i": [1, 2]})


class TestClassifyHandTraced:
    def test_smallest_w_graph(self):
        # k=1: the two edges traverse the same index pair and coincide
        labels, stats = classify(IndexCircuit(1, (1,), (1,)))
        assert labels == [EdgeLabel.T12, EdgeLabel.T3_IRREGULAR]
        assert (stats.l, stats.r, stats.c, stats.t) == (1, 0, 1, 0)
        assert stats.is_W and stats.is_canonical

    def test_two_step_star_circuit(self):
        labels, stats = classify(IndexCircuit(2, (1, 2), (1, 1), star=True))
        assert labels == [
            EdgeLabel.T11,
            EdgeLabel.ROW_INNOVATION,
            EdgeLabel.T3_IRREGULAR,
            EdgeLabel.T3_IRREGULAR,
        ]
        assert (stats.l, stats.r, stats.c, stats.r1, stats.t) == (2, 1, 1, 1, 0)
        assert stats.is_W

    def test_all_distinct_edges_not_w(self):
        _, stats = classify(IndexCircuit(2, (1, 2), (1, 2)))
        assert not stats.is_W

    def test_quadruple_coincidence_produces_t21(self):
        # i=(1,2,1), j=(1,1,1): the (1,1) pair carries four edges
        labels, stats = classify(IndexCircuit(3, (1, 2, 1), (1, 1, 1)))
        assert labels == [
            EdgeLabel.T11,
            EdgeLabel.ROW_INNOVATION,
            EdgeLabel.T3_IRREGULAR,
            EdgeLabel.T3_IRREGULAR,
            EdgeLabel.T21,
            EdgeLabel.T4_OTHER,
        ]
        assert (stats.l, stats.r, stats.c, stats.r1) == (2, 1, 1, 1)
        assert (stats.t, stats.mu, stats.mu1) == (1, 1, 0)
        assert stats.n_i == (2,)
        assert stats.m_j == ()
        assert stats.is_W

    def test_star_circuit_with_t22(self):
        # i=(1,2,1,2), j=(1,2,2,1): e4 = (1,2) heads a class with no
        # innovation, hence T22; its partner e5 is plain T4.
        circuit = IndexCircuit(4, (1, 2, 1, 2), (1, 2, 2, 1), star=True)
        labels, stats = classify(circuit)
        assert labels == [
            EdgeLabel.T11,
            EdgeLabel.ROW_INNOVATION,
            EdgeLabel.T12,
            EdgeLabel.T22,
            EdgeLabel.T4_OTHER,
            EdgeLabel.T3_IRREGULAR,
            EdgeLabel.T3_IRREGULAR,
            EdgeLabel.T3_IRREGULAR,
        ]
        assert (stats.l, stats.r, stats.c, stats.r1) == (3, 1, 2, 1)
        assert (stats.t, stats.mu, stats.mu1) == (1, 0, 0)
        assert stats.m_j == (2,)
        assert stats.is_W
        # star inequality: #T12 = l - r - r1 <= #T22 = t - mu
        assert stats.l - stats.r - stats.r1 <= stats.t - stats.mu

    def test_regular_t3(self):
        # i=(1,2,3), j=(1,2,1): when the walk returns to J-1 via e6, two
        # innovations at J-1 (e1 and e2) are still single, so e6 is regular.
        labels, stats = classify(IndexCircuit(3, (1, 2, 3), (1, 2, 1), star=True))
        assert labels == [
            EdgeLabel.T11,
            EdgeLabel.ROW_INNOVATION,
            EdgeLabel.T11,
            EdgeLabel.ROW_INNOVATION,
            EdgeLabel.T22,
            EdgeLabel.T3_REGULAR,
        ]
        assert not stats.is_W  # the (2,1), (2,2), (3,2) pairs are single

    def test_canonical_flag(self):
        assert classify(IndexCircuit(2, (1, 2), (1, 1)))[1].is_canonical
        assert not classify(IndexCircuit(2, (2, 1), (1, 1)))[1].is_canonical
        assert not classify(IndexCircuit(2, (1, 3), (1, 1)))[1].is_canonical

    def test_classify_json_shape(self):
        payload = classify_json(IndexCircuit(1, (1,), (1,)))
        assert payload["k"] == 1
        assert payload["labels"] == ["column-innovation-T12", "T3-irregular"]
        assert payload["stats"]["is_W"] is True


class TestExhaustiveTaxonomy:
    """Exhaustive scan of star circuits with k <= 3, p <= 3, n <= 3."""

    def _scan(self):
        for k in (1, 2, 3):
            for p in (1, 2, 3):
                for n in (1, 2, 3):
                    for circuit in circuits(p, n, k, star=True):
                        yield circuit

    def test_nonzero_expectation_implies_w_graph(self):
        seen = 0
        for circuit in self._scan():
            value = expectation_of_circuit(circuit, RADEMACHER_MOMENTS)
            gauss = expectation_of_circuit(circuit, GAUSSIAN_MOMENTS)
            _, stats = classify(circuit)
            if value != 0 or gauss != 0:
                assert stats.is_W, circuit
                seen += 1
        assert seen > 0

    def test_counting_identities_on_w_graphs(self):
        checked = 0
        for circuit in self._scan():
            labels, stats = classify(circuit)
            assert all(lab is not None for lab in labels)
            counts = _label_counts(labels)
            t3 = counts.get(EdgeLabel.T3_REGULAR, 0) + counts.get(EdgeLabel.T3_IRREGULAR, 0)
            t4 = (
                counts.get(EdgeLabel.T21, 0)
                + counts.get(EdgeLabel.T22, 0)
                + counts.get(EdgeLabel.T4_OTHER, 0)
            )
            # structural identities that hold for every circuit
            assert stats.r + stats.c == stats.l
            assert stats.r1 <= stats.r
            assert stats.mu <= stats.t
            assert stats.mu1 <= stats.mu
            assert counts.get(EdgeLabel.T12, 0) == stats.l - stats.r - stats.r1
            if not stats.is_W:
                continue
            checked += 1
            assert t3 == stats.l
            assert t4 == 2 * circuit.k - 2 * stats.l
            assert sum(stats.n_i) + sum(stats.m_j) == 2 * circuit.k - 2 * stats.l
            assert all(m >= 2 for m in stats.m_j)
            assert stats.t <= 2 * circuit.k - 2 * stats.l
            # star-constraint inequality
            assert stats.l - stats.r - stats.r1 <= stats.t - stats.mu
        assert checked > 0


class TestClassifyProperties:
    """Invariants of classify on random circuits, beyond the exhaustive k <= 3 scan."""

    @staticmethod
    @st.composite
    def _circuit(draw):
        k = draw(st.integers(1, 6))
        index = st.integers(1, k + 1)
        i_seq = draw(st.lists(index, min_size=k, max_size=k))
        j_seq = draw(st.lists(index, min_size=k, max_size=k))
        return IndexCircuit(k, tuple(i_seq), tuple(j_seq))

    @settings(max_examples=300, deadline=None)
    @given(_circuit())
    def test_labels_and_w_graph_flag(self, circuit):
        labels, stats = classify(circuit)
        k, i_seq, j_seq = circuit.k, circuit.i_seq, circuit.j_seq
        assert len(labels) == 2 * k
        assert all(isinstance(lab, EdgeLabel) for lab in labels)
        # e_{2a-1} = i_a j_a and e_{2a} = j_a i_{a+1} coincide iff their (i, j) agree
        ends = [(i_seq[a], j_seq[a]) for a in range(k)] + [(i_seq[(a + 1) % k], j_seq[a]) for a in range(k)]
        sizes = _label_counts(ends).values()
        assert stats.is_W == all(size >= 2 for size in sizes)
        # every vertex but i_1 is reached by exactly one innovation
        assert stats.r == len(set(i_seq)) - 1
        assert stats.c == len(set(j_seq))


class TestExpectationOfCircuit:
    def test_pair_product(self):
        c = IndexCircuit(2, (1, 2), (1, 1))
        assert expectation_of_circuit(c, RADEMACHER_MOMENTS) == 1.0
        assert expectation_of_circuit(c, (0.0, 1.0)) == 1.0

    def test_non_w_vanishes_with_centered_entries(self):
        c = IndexCircuit(2, (1, 2), (1, 2))
        assert expectation_of_circuit(c, GAUSSIAN_MOMENTS) == 0.0

    def test_student_t5_products(self):
        mom = moment_sequence(DistributionSpec("student-t", df=5), 4)
        assert expectation_of_circuit(IndexCircuit(2, (1, 2), (1, 1)), mom) == 1.0
        quad = expectation_of_circuit(IndexCircuit(2, (1, 1), (1, 1)), mom)
        assert quad == pytest.approx(9.0, rel=1e-12)

    def test_monte_carlo_oracle_for_products(self):
        # circuit i=(1,2), j=(1,1): product X11^2 X21^2, mean 1
        rng = np.random.default_rng(33)
        draws = rng.standard_t(5, size=(10**6, 2)) / math.sqrt(5.0 / 3.0)
        prod = draws[:, 0] ** 2 * draws[:, 1] ** 2
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - 1.0) <= 3 * se

    def test_missing_moment_order(self):
        with pytest.raises(ValidationError):
            expectation_of_circuit(IndexCircuit(2, (1, 1), (1, 1)), (0.0, 1.0))

    def test_infinite_moment_rejected(self):
        mom = moment_sequence(DistributionSpec("student-t", df=4), 4)  # m4 = inf
        with pytest.raises(ValidationError):
            expectation_of_circuit(IndexCircuit(2, (1, 1), (1, 1)), mom)


class TestExactTraceMoment:
    def test_k2_closed_form_everywhere(self):
        # E tr(B^2) = (p-1)/4 whenever m1=0, m2=1
        for p in range(1, 7):
            for n in range(1, 7):
                got = exact_trace_moment(p, n, 2, RADEMACHER_MOMENTS)
                assert got == (p - 1) / 4, (p, n)
                got_g = exact_trace_moment(p, n, 2, GAUSSIAN_MOMENTS)
                assert got_g == (p - 1) / 4, (p, n)
        # law-free: with m1 = 0 and m2 = 1 the unscaled sums are p (p-1) n at k = 2
        # and p (p-1) (p-2) n at k = 3, exact ints, for every law
        laws = [DistributionSpec(kind) for kind in ("gaussian", "rademacher", "uniform-symmetric", "centered-exponential")]
        laws += [DistributionSpec("student-t", df=df) for df in (2.5, 3, 5)]
        laws += [DistributionSpec("two-point", q=q) for q in (0.3, 0.001)]
        for dist in laws:
            for p, n in ((1, 9), (2, 7), (3, 1), (7, 60), (20, 23), (464, 1)):
                for k, expected in ((2, p * (p - 1) * n), (3, p * (p - 1) * (p - 2) * n)):
                    got = trace_moment_unscaled(p, n, k, moment_sequence(dist, 2 * k))
                    assert got == expected and type(got) is int, (dist, p, n, k)

    def test_acceptance_case_exact(self):
        assert exact_trace_moment(3, 4, 2, (0.0, 1.0)) == 0.5

    def test_p_one_vanishes(self):
        assert exact_trace_moment(1, 5, 3, RADEMACHER_MOMENTS) == 0.0

    def test_no_star_circuit_returns_before_the_divisor(self):
        # p = n = 1 passes the budget at any k; the divisor 2^k would have 10^8 bits
        start = time.perf_counter()
        assert exact_trace_moment(1, 1, 10**8, (0.0, 1.0)) == 0.0
        assert exact_trace_moment(1, 1, 10**8, (0, 1)) == 0.0
        assert time.perf_counter() - start < 0.1

    def test_monte_carlo_oracle_k3(self):
        exact = exact_trace_moment(3, 3, 3, RADEMACHER_MOMENTS)
        assert exact == pytest.approx(1 / 12, abs=1e-15)
        rng = np.random.default_rng(34)
        N = 10**5
        Xs = (rng.integers(0, 2, size=(N, 3, 3)) * 2 - 1).astype(float)
        G = np.einsum("bik,bjk->bij", Xs, Xs) / 6.0
        idx = np.arange(3)
        G[:, idx, idx] = 0.0
        tr3 = np.einsum("bij,bjk,bki->b", G, G, G)
        se = tr3.std(ddof=1) / math.sqrt(N)
        assert abs(tr3.mean() - exact) <= 3 * se

    def test_budget_guard(self):
        with pytest.raises(ResourceError):
            exact_trace_moment(10, 10, 9, RADEMACHER_MOMENTS)

    def test_budget_still_counts_the_nominal_circuits(self):
        # its 9 * 100^2 circuits with i_1, i_2, j_1 = 1, 2, 1 would be cheap; the guard reads (pn)^k
        moments = moment_sequence(DistributionSpec("gaussian"), 6)
        with pytest.raises(ResourceError) as got:
            exact_trace_moment(10, 100, 3, moments)
        assert str(got.value) == "(p*n)^k = (10*100)^3 exceeds the 1e+08 term budget"

    def test_law_entry_checks_the_budget_before_the_moments(self, monkeypatch):
        def no_moments(*args):
            raise AssertionError("moments built for an input the budget refuses")

        monkeypatch.setattr(momentlab, "moment_sequence", no_moments)
        with pytest.raises(ValidationError, match=r"^p, n, k must be >= 1$"):
            law_trace_moment(DistributionSpec("gaussian"), 3, 4, 0)
        with pytest.raises(ResourceError) as got:
            law_trace_moment(DistributionSpec("gaussian"), 10, 100, 3)
        assert str(got.value) == "(p*n)^k = (10*100)^3 exceeds the 1e+08 term budget"

    def test_budget_message_beyond_the_decimal_exponent_range(self):
        with pytest.raises(ResourceError) as got:
            _check_budget(10, 100, 10**18)
        assert str(got.value) == "(p*n)^k = (10*100)^1000000000000000000 exceeds the 1e+08 term budget"

    @pytest.mark.parametrize(
        "p, n, k, within",
        [(10**8, 1, 1, True), (10**8 + 1, 1, 1, False), (2, 1, 26, True), (2, 1, 27, False), (1, 1, 10**400, True)],
    )
    def test_budget_decides_in_ints(self, p, n, k, within):
        # 2^26 < 10^8 < 2^27: from k = 27 on, every p n >= 2 is over the budget
        if within:
            _check_budget(p, n, k)
        else:
            with pytest.raises(ResourceError, match=rf"^\(p\*n\)\^k = \({p}\*{n}\)\^{k} exceeds"):
                _check_budget(p, n, k)

    @pytest.mark.parametrize(
        "p, n, k",
        [(2, 3, 2), (3, 2, 2), (2, 2, 4), (3, 2, 4), (2, 3, 4), (4, 2, 4), (2, 2, 6), (3, 2, 6), (2, 4, 4), (5, 3, 2), (3, 3, 4)],
    )
    @pytest.mark.parametrize(
        "dist",
        [DistributionSpec(kind) for kind in ("uniform-symmetric", "gaussian", "centered-exponential")]
        + [DistributionSpec("two-point", q=0.3), DistributionSpec("student-t", df=40.5)],
        ids=lambda dist: dist.kind,
    )
    def test_even_k_law_moment_is_the_brute_force_sum_rounded_once(self, dist, p, n, k):
        moments = moment_sequence(dist, 2 * k)
        assert all(isinstance(m, (int, Fraction)) for m in moments)
        unscaled = sum((expectation_of_circuit(c, moments) for c in circuits(p, n, k)), 0)
        assert law_trace_moment(dist, p, n, k) == float(Fraction(unscaled) / (2**k * (n * p) ** (k // 2)))

    def test_law_moment_is_the_benchmark_reference_bit_for_bit(self):
        # the benchmark compares these answers to 1e-12; the oracle must not move them at all
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")) as fh:
            answers = json.load(fh)["oracles"]
        cases = [json.loads(key) for key in answers if json.loads(key)["mode"] == "exact"]
        assert len(cases) == 21
        for case in cases:
            got = law_trace_moment(DistributionSpec(case["dist"]), case["p"], case["n"], case["k"])
            assert got.hex() == answers[json.dumps(case, sort_keys=True)].hex(), case


class TestPatternTally:
    """trace_moment_unscaled against the circuit loop it replaced, against
    the brute-force expectation_of_circuit summed over circuits() and
    against the orbit tally of tests/oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(
        # p n k <= 48 keeps each draw within 7,680 star circuits; the one
        # shape it leaves out, (4, 3, 5) with 58,320, is the explicit example
        shape=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5)).filter(
            lambda s: math.prod(s) <= 48
        ),
        moments=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=8, max_size=8
        ),
    )
    @example(shape=(4, 3, 5), moments=[Fraction(-1, 2), 1, Fraction(2, 7), 3, Fraction(-3, 5), 2, Fraction(1, 3), -3])
    def test_equals_sum_over_circuits(self, shape, moments):
        # m1 may be nonzero, so every circuit contributes, W-graph or not
        p, n, k = shape
        moments = tuple(moments)
        expected = sum((expectation_of_circuit(c, moments) for c in circuits(p, n, k)), 0)
        got = trace_moment_unscaled(p, n, k, moments)
        assert isinstance(got, (int, Fraction))
        assert got == expected

    @pytest.mark.parametrize(
        "law, p, n, k",
        [
            (law, *shape)
            for law in ("t3", "t4", "t5", "gaussian", "short", "nan-odd")
            for shape in (
                (2, 3, 2), (2, 3, 3), (3, 3, 4), (3, 4, 3), (2, 2, 12), (3, 1, 16), (2, 3, 10), (1, 4, 3), (2, 3, 5)
            )
        ]
        + [(law, *shape) for law in ("float", "fraction") for shape in ((3, 3, 3), (4, 2, 3), (2, 5, 2))],
    )
    def test_parity_with_circuit_loop(self, p, n, k, law):
        if law == "float":
            moments = RADEMACHER_MOMENTS
        elif law == "fraction":
            # the same moments as Fractions take the same exact path
            moments = tuple(map(Fraction, RADEMACHER_MOMENTS))
        elif law == "short":
            moments = (0.0, 1.0)
        elif law == "nan-odd":
            # m1 is no early zero, so the pattern order decides which error comes first
            moments = (math.nan, 1.0, math.nan, 3.0)
        elif law == "gaussian":
            moments = moment_sequence(DistributionSpec("gaussian"), 2 * k)
        else:
            moments = moment_sequence(DistributionSpec("student-t", df=int(law[1])), 2 * k)
        try:
            terms = list(_loop_terms(p, n, k, moments))
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                trace_moment_unscaled(p, n, k, moments)
            assert str(got.value) == str(exc)
            return
        expected = _loop_sum(terms)
        got = trace_moment_unscaled(p, n, k, moments)
        assert type(got) is type(expected)
        if not terms:  # p = 1, or p = 2 with odd k: no star circuit
            assert got == 0
        assert got == expected

    @pytest.mark.parametrize(
        "dist, p, n, k",
        [
            (dist, *shape)
            for shape in ((5, 2, 8), (3, 2, 10), (10, 10, 4), (21, 1, 6), (2, 50, 2))
            for dist in (DistributionSpec("gaussian"), DistributionSpec("two-point", q=0.3), None)
        ]
        + [(None, 4, 1, 13)],  # about 1 s for each law there, so the m1 law alone
        ids=lambda value: value.kind if isinstance(value, DistributionSpec) else "m1" if value is None else None,
    )
    def test_class_sum_equals_orbit_tally(self, dist, p, n, k):
        # None is the law with m1 = 1/3, where every circuit contributes
        moments = _m1_third_moments(2 * k) if dist is None else moment_sequence(dist, 2 * k)
        expected = orbit_tally(p, n, k, moments)
        got = trace_moment_unscaled(p, n, k, moments)
        assert type(got) is type(expected)
        assert got == expected

    @pytest.mark.parametrize("p, n, k", [(1, 3, 3), (4, 3, 1), (2, 3, 2), (3, 2, 3), (4, 25, 3), (3, 4, 5), (2, 2, 12)])
    def test_chunks_hold_only_circuits_from_1_2_1(self, p, n, k):
        chunks = list(_star_edge_chunks(p, n, k))
        if k < 2 or p < 2:
            assert not chunks
            return
        assert sum(edges.shape[1] for edges in chunks) <= (p - 1) ** (k - 2) * n ** (k - 1)
        for edges in chunks:
            # e_1 = i_1 j_1 and e_2 = j_1 i_2 with (i_1, i_2, j_1) = (1, 2, 1)
            assert (edges[0] == 0).all() and (edges[1] == n).all()

    @pytest.mark.parametrize("moments", [(Fraction(0), Fraction(1)), (0, 1), (0.0, 1.0)])
    def test_no_star_circuit_is_exact_zero(self, moments):
        for p, n, k in ((1, 4, 3), (2, 3, 5), (3, 2, 1)):
            got = trace_moment_unscaled(p, n, k, moments)
            assert got == 0 and type(got) is int

    def test_term_beyond_double_is_infinite(self):
        # each of the 2 circuits is two classes of four edges, a term of 1e400: the sum stays exact
        moments = (0.0, 1.0, 0.0, 1e200, 0.0, 1e200, 0.0, 1e200)
        assert trace_moment_unscaled(2, 1, 4, moments) == 2 * Fraction(1e200) ** 2
        assert exact_trace_moment(2, 1, 4, moments) == math.inf
        # each of the 6 circuits is three classes of two edges, a term of -1e600, at odd k
        assert trace_moment_unscaled(3, 1, 3, (0.0, -1e200)) == -6 * Fraction(1e200) ** 3
        assert exact_trace_moment(3, 1, 3, (0.0, -1e200)) == -math.inf

    @pytest.mark.parametrize("p, n, k", [(4, 25, 3), (3, 1, 16)])
    def test_peak_memory_is_bounded(self, p, n, k):
        moments = moment_sequence(DistributionSpec("rademacher"), 2 * k)
        tracemalloc.start()
        try:
            value = trace_moment_unscaled(p, n, k, moments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value > 0
        # the class sum holds one circuit, its edge multiplicities and one
        # count per pattern, whatever the circuit count
        assert peak <= 2 * 2**20


class TestEnumerateCanonical:
    def test_k1_single_graph(self):
        graphs = list(enumerate_canonical(1))
        assert [g.to_json() for g in graphs] == [{"k": 1, "i": [1], "j": [1]}]

    def test_k2_hand_count(self):
        free = {(g.i_seq, g.j_seq) for g in enumerate_canonical(2)}
        assert free == {((1, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (1, 1))}
        starred = list(enumerate_canonical(2, star=True))
        assert [(g.i_seq, g.j_seq) for g in starred] == [((1, 2), (1, 1))]

    def test_all_yields_are_canonical_w_graphs(self):
        for k in (1, 2, 3):
            for g in enumerate_canonical(k):
                _, stats = classify(g)
                assert stats.is_W and stats.is_canonical

    def test_vertex_counts_match_innovation_counts(self):
        # distinct I-vertices = r + 1, distinct J-vertices = c on W-graphs
        for g in enumerate_canonical(3):
            _, stats = classify(g)
            assert len(set(g.i_seq)) == stats.r + 1
            assert len(set(g.j_seq)) == stats.c

    def test_reconstruction_matches_direct_enumeration(self):
        # sum over canonical classes of size * expectation == unscaled sum,
        # exactly, in integer arithmetic
        frac_r = tuple(Fraction(m) for m in (0, 1, 0, 1, 0, 1))
        frac_g = tuple(Fraction(m) for m in (0, 1, 0, 3, 0, 15))
        for moments in (frac_r, frac_g):
            for k in (2, 3):
                for (p, n) in ((2, 2), (3, 3), (3, 4)):
                    recon = sum(
                        isomorphism_class_size(g, p, n) * expectation_of_circuit(g, moments)
                        for g in enumerate_canonical(k, star=True)
                    )
                    direct = trace_moment_unscaled(p, n, k, moments)
                    assert recon == direct, (k, p, n, moments[3])

    def test_class_size_formula(self):
        g = IndexCircuit(2, (1, 2), (1, 1))
        assert isomorphism_class_size(g, 5, 7) == 5 * 4 * 7
        assert isomorphism_class_size(g, 1, 7) == 0  # needs 2 distinct I values

    def test_k_guard(self):
        with pytest.raises(ResourceError):
            list(enumerate_canonical(6))


class TestBoundRhs:
    def test_k1_hand_expansion(self):
        # only the (l, r, r1, t, mu, mu1) = (1, 1, 0, 0, 0, 0) tuple
        # survives at k=1, giving (p/2) sqrt(p/n)
        for p, n in ((3, 9), (10, 1000), (7, 49)):
            assert bound_rhs_a13(p, n, 1, 0.5) == pytest.approx(
                (p / 2) * math.sqrt(p / n), rel=1e-12
            )

    def test_matches_direct_float_oracle(self):
        def direct(p, n, k, d):
            total = 0.0
            for l in range(1, k + 1):
                for r in range(1, l + 1):
                    for r1 in range(0, r + 1):
                        if l - r - r1 < 0 or l - r - r1 > k - r1:
                            continue
                        for t in range(0, 2 * k - 2 * l + 1):
                            for mu in range(0, t + 1):
                                for mu1 in range(0, mu + 1):
                                    total += (
                                        math.comb(k, r)
                                        * math.comb(r, r1)
                                        * math.comb(k - r1, l - r - r1)
                                        * math.comb(2 * k - l, l)
                                        * (p / n) ** ((r - r1) / 2)
                                        * p ** (-t / 2)
                                        * p
                                        * k ** (3 * t)
                                        * (t + 1) ** (6 * k - 6 * l)
                                        * d ** (2 * k - 2 * l - 2 * t + mu1)
                                    )
            return total / 2**k

        for (p, n, k, d) in ((3, 9, 2, 0.5), (5, 500, 3, 0.3), (4, 64, 4, 0.9), (100, 10000, 8, 0.1)):
            assert bound_rhs_a13(p, n, k, d) == pytest.approx(direct(p, n, k, d), rel=1e-10)

    def test_delta_grid_direction(self):
        # On (0, 1] the sum is dominated by terms with negative delta
        # exponents (mu1 below its cap), so the bound is nonincreasing in
        # delta -- frozen from the direct-evaluation oracle.
        grid = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
        for (p, n, k) in ((5, 500, 2), (5, 500, 3), (10**6, 10**8, 3)):
            vals = [bound_rhs_a13(p, n, k, d) for d in grid]
            assert all(a >= b for a, b in zip(vals, vals[1:])), (p, n, k, vals)

    def test_bound_exceeds_exact_trace_moment(self):
        # rademacher entries satisfy |X| <= delta (np)^{1/4} for delta=0.5
        # at (p, n) = (3, 9); M = max(EX^4, |EX^3|) = 1 <= k, so the
        # "k large enough" step of the bound chain is valid here
        assert 0.5 * (27) ** 0.25 > 1.0
        exact = exact_trace_moment(3, 9, 3, RADEMACHER_MOMENTS)
        bound = bound_rhs_a13(3, 9, 3, 0.5)
        assert bound > exact

    def test_validation(self):
        with pytest.raises(ValidationError):
            bound_rhs_a13(3, 9, 0, 0.5)
        with pytest.raises(ValidationError):
            bound_rhs_a13(3, 9, 2, 0.0)
        with pytest.raises(ValidationError):
            bound_rhs_a13(3, 9, 2, math.inf)

    def test_overflow_guard(self):
        with pytest.raises(ResourceError):
            bound_rhs_a13(2, 2, 25, 1.0)

    def test_term_budget(self):
        # 2 * 10^7 log-terms are first exceeded at k = 608; the guard fires before any summing
        with pytest.raises(ResourceError, match="budget"):
            bound_rhs_a13(10**300, 10**300, 608, 0.5)


class TestCheckSchedule:
    def test_all_conditions_pass_at_huge_synthetic_p(self):
        # p = e^300, delta = p^{-1/16}: every inequality of both schedules
        # holds (frozen from direct evaluation)
        p = math.exp(300.0)
        report = check_schedule(p, p ** (-1.0 / 16.0))
        assert report["h"] == report["kk"] == 90000
        assert report["feasible"]
        assert all(c["passed"] for c in report["conditions"])

    def test_small_p_always_fails_something(self):
        for delta in (0.1, 0.5, 0.9):
            report = check_schedule(10, delta)
            assert not report["feasible"]

    def test_honest_outcome_at_e100(self):
        # at p = e^100 with delta = p^{-1/16} the h-schedule passes but the
        # k-schedule fails: delta^{1/3} k / log p = 12.45 and
        # delta^2 p^{1/4} / k^3 = 2.7e-7
        p = math.exp(100.0)
        report = check_schedule(p, p ** (-1.0 / 16.0))
        assert report["h_feasible"]
        assert not report["k_feasible"]
        values = {c["name"]: c["value"] for c in report["conditions"]}
        assert values["k_delta"] == pytest.approx(12.4514, rel=1e-3)
        assert values["k_power"] == pytest.approx(2.6834e-7, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            check_schedule(10, 0.0)
        with pytest.raises(ValidationError):
            check_schedule(1, 0.5)
        with pytest.raises(ValidationError):
            check_schedule(10, math.inf)
        with pytest.raises(ValidationError):
            check_schedule(10, 0.5, C1=math.inf)

    def test_report_json(self):
        report = check_schedule(100, 0.2)
        assert {c["name"] for c in report["conditions"]} == {
            "h_growth",
            "h_delta",
            "h_tail",
            "k_growth",
            "k_delta",
            "k_power",
        }
        assert report["feasible"] == all(c["passed"] for c in report["conditions"])
