"""Co-occurrence counting, association strength, relevance, term selection."""

from __future__ import annotations

import builtins
import math
import random
import warnings
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemap.errors import ConfigError, ConsistencyError
from citemap.network import (
    CoocNetwork,
    SimilarityMatrix,
    TermNode,
    association_strength,
    count_cooccurrences,
    profile_divergence,
    relevance_scores,
    select_top_terms,
    top_count,
)
from citemap.terms import Lexicon, LexiconEntry

from conftest import network


def lexicon_from(unit_counts: dict[str, dict[int, int]]) -> Lexicon:
    return tuple(LexiconEntry(term, dict(sorted(counts.items()))) for term, counts in sorted(unit_counts.items()))


def compensated_sum(values, start=0):
    """The builtin sum() of Python 3.12 on: Neumaier-compensated over floats, exact over ints."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation


def unit_texts(n: int) -> list[str]:
    """n units; counting reads only their number, the lexicon holds their positions."""
    return ["irrelevant"] * n


class TestCountCooccurrences:
    def test_single_unit_triangle(self):
        lexicon = lexicon_from({"a": {0: 1}, "b": {0: 1}, "c": {0: 1}})
        net = count_cooccurrences(unit_texts(1), lexicon)
        assert net.edges == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_counts_match_set_intersection(self):
        lexicon = lexicon_from({
            "a": {0: 1, 1: 1, 2: 1},
            "b": {1: 1, 2: 1, 3: 1},
        })
        net = count_cooccurrences(unit_texts(4), lexicon)
        assert net.edges[(0, 1)] == 2  # |{1, 2}|

    def test_binary_mode_caps_within_unit(self):
        lexicon = lexicon_from({"a": {0: 2}, "b": {0: 1}})
        net = count_cooccurrences(unit_texts(1), lexicon, "binary")
        assert net.edges[(0, 1)] == 1

    def test_full_mode_takes_min(self):
        lexicon = lexicon_from({"a": {0: 3}, "b": {0: 2}})
        net = count_cooccurrences(unit_texts(1), lexicon, "full")
        assert net.edges[(0, 1)] == 2

    def test_unknown_unit_is_consistency_error(self):
        for ghost in (1, -1):  # positions outside the one unit
            lexicon = lexicon_from({"a": {ghost: 1}, "b": {0: 1}})
            with pytest.raises(ConsistencyError, match="outside"):
                count_cooccurrences(unit_texts(1), lexicon)

    def test_unmatched_term_is_consistency_error(self):
        lexicon = lexicon_from({"a": {}, "b": {0: 1}})
        with pytest.raises(ConsistencyError, match="matched no unit"):
            count_cooccurrences(unit_texts(1), lexicon)

    def test_unknown_counting_mode(self):
        with pytest.raises(ConfigError):
            count_cooccurrences(unit_texts(1), lexicon_from({"a": {0: 1}}), "ternary")

    def test_binary_bound_holds_on_random_corpora(self):
        rng = random.Random(7)
        for _ in range(50):
            n_units = rng.randint(1, 10)
            n_terms = rng.randint(2, 15)
            unit_counts: dict[str, dict[int, int]] = {}
            for t in range(n_terms):
                hit = {k: rng.randint(1, 3) for k in range(n_units) if rng.random() < 0.5}
                if hit:
                    unit_counts[f"term{t}"] = hit
            if not unit_counts:
                continue
            lexicon = lexicon_from(unit_counts)
            net = count_cooccurrences(unit_texts(n_units), lexicon, "binary")
            occ = {node.term: node.occurrences for node in net.terms}
            terms = [node.term for node in net.terms]
            for (i, j), c in net.edges.items():
                assert c <= min(occ[terms[i]], occ[terms[j]])
                assert c <= n_units

    def test_brute_force_equivalence(self):
        rng = random.Random(11)
        for _ in range(30):
            n_units = rng.randint(1, 10)
            unit_counts: dict[str, dict[int, int]] = {}
            for t in range(rng.randint(2, 15)):
                hit = {k: rng.randint(1, 4) for k in range(n_units) if rng.random() < 0.4}
                if hit:
                    unit_counts[f"term{t:02d}"] = hit
            if len(unit_counts) < 2:
                continue
            lexicon = lexicon_from(unit_counts)
            for mode in ("binary", "full"):
                net = count_cooccurrences(unit_texts(n_units), lexicon, mode)
                terms = [node.term for node in net.terms]
                for i, j in combinations(range(len(terms)), 2):
                    expected = 0
                    for k in range(n_units):
                        times_i = unit_counts[terms[i]].get(k, 0)
                        times_j = unit_counts[terms[j]].get(k, 0)
                        if times_i and times_j:
                            expected += 1 if mode == "binary" else min(times_i, times_j)
                    assert net.edges.get((i, j), 0) == expected


# The counting loop before pairs were counted by Counter over layers: one
# dict update per pair of terms in a unit, weighted by the smaller count.
def _reference_edges(n_units: int, lexicon: Lexicon, counting: str) -> dict[tuple[int, int], int]:
    unit_terms: list[list[tuple[int, int]]] = [[] for _ in range(n_units)]
    for index, entry in enumerate(lexicon):
        for position, times in entry.unit_counts.items():
            unit_terms[position].append((index, times))
    edges: dict[tuple[int, int], int] = {}
    for present in unit_terms:
        for (i, times_i), (j, times_j) in combinations(present, 2):
            weight = 1 if counting == "binary" else min(times_i, times_j)
            edges[(i, j)] = edges.get((i, j), 0) + weight
    return dict(sorted(edges.items()))


# up to 12 terms over up to 8 units, each held 1 to 5 times where it occurs, so full counting
# needs up to 5 layers; some terms are left empty and dropped
UNIT_COUNTS = st.lists(
    st.dictionaries(st.integers(0, 7), st.integers(1, 5), max_size=8), min_size=2, max_size=12,
).map(lambda per_term: lexicon_from({f"term{t:02d}": c for t, c in enumerate(per_term) if c}))


class TestCountingMatchesReference:
    @given(UNIT_COUNTS, st.sampled_from(["binary", "full"]))
    @settings(max_examples=300, deadline=None)
    def test_edges_and_their_order(self, lexicon, counting):
        net = count_cooccurrences(unit_texts(8), lexicon, counting)
        assert list(net.edges.items()) == list(_reference_edges(8, lexicon, counting).items())
        assert net.terms == tuple(TermNode(e.term, e.occurrence_count) for e in lexicon)

    def test_many_layers(self):
        lexicon = lexicon_from({"a": {0: 40, 1: 3}, "b": {0: 25, 1: 7}, "c": {0: 1, 1: 9}})
        net = count_cooccurrences(unit_texts(2), lexicon, "full")
        assert net.edges == {(0, 1): 25 + 3, (0, 2): 1 + 3, (1, 2): 1 + 7}


class TestAssociationStrength:
    def test_triangle_of_ones(self):
        net = network({"a": 1, "b": 1, "c": 1}, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        sim = association_strength(net)
        # w_i = 2 each, T = 3, s = 2*3*1/(2*2)
        assert all(s == 1.5 for s in sim.strengths.values())

    def test_single_edge(self):
        net = network({"a": 5, "b": 5}, {(0, 1): 5})
        sim = association_strength(net)
        assert sim.strengths[(0, 1)] == 2.0

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_scale_invariance_is_exact(self, k):
        edges = {(0, 1): 2, (0, 2): 1, (1, 3): 4, (2, 3): 3}
        net = network({t: 4 for t in "abcd"}, edges)
        scaled = network({t: 4 for t in "abcd"}, {pair: c * k for pair, c in edges.items()})
        s1 = association_strength(net).strengths
        s2 = association_strength(scaled).strengths
        assert s1 == s2  # bit-identical floats

    def test_isolated_term_kept_without_warning(self):
        # leaving isolated terms off a map is the pipeline's relevance cut, not this formula
        net = network({"a": 1, "island": 1, "b": 1}, {(0, 2): 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = association_strength(net)
        assert sim.terms == ("a", "island", "b")
        assert sim.strengths == {(0, 2): 2.0}

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            association_strength(network({"a": 1}, {}))

    def test_symmetry_by_construction(self):
        net = network({"a": 2, "b": 2, "c": 2}, {(0, 1): 2, (1, 2): 1})
        sim = association_strength(net)
        assert all(i < j for (i, j) in sim.strengths)


class TestNetworkTypes:
    def test_network_edges_iterate_in_pair_order(self):
        net = network({t: 1 for t in "abcd"}, {(2, 3): 1, (0, 3): 2, (1, 2): 3, (0, 1): 4})
        assert list(net.edges) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_similarity_strengths_iterate_in_pair_order(self):
        s = SimilarityMatrix(("a", "b", "c", "d"), {(2, 3): 0.5, (0, 3): 1.0, (1, 2): 1.5, (0, 1): 2.0})
        assert list(s.strengths) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert s.strengths[(1, 2)] == 1.5

    @pytest.mark.parametrize("pair", [(1, 0), (1, 1), (-1, 1), (0, 3)])
    def test_pair_out_of_order_or_range_is_consistency_error(self, pair):
        with pytest.raises(ConsistencyError, match="not an ordered pair"):
            SimilarityMatrix(("a", "b", "c"), {(0, 1): 1.0, pair: 1.0})
        with pytest.raises(ConsistencyError, match="not an ordered pair"):
            CoocNetwork(tuple(TermNode(t, 1) for t in "abc"), {(0, 1): 1, pair: 1})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_strength_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite similarity"):
            SimilarityMatrix(("a", "b", "c"), {(0, 1): 1.0, (1, 2): value})


class TestRelevanceScores:
    def test_identical_profile_scores_zero(self):
        background = {0: 0.25, 1: 0.5, 2: 0.25}
        assert profile_divergence(dict(background), background) == 0.0

    def test_three_node_path_hand_computed(self):
        # a-b-c with unit counts: w = (1, 2, 1), T = 2, q = (1/4, 1/2, 1/4)
        # r_a = ln(1/q_b) = ln 2; r_b = ln 2; symmetry gives r_a == r_c
        net = network({"a": 1, "b": 2, "c": 1}, {(0, 1): 1, (1, 2): 1})
        scores = relevance_scores(net)
        assert scores[0] == pytest.approx(math.log(2), abs=1e-12)
        assert scores[1] == pytest.approx(math.log(2), abs=1e-12)
        assert scores[0] == scores[2]

    def test_concentration_increase_raises_score(self):
        # star 0-{1,2,3}: each leaf scores ln 2; adding edge (1,2) shrinks the
        # hub's background share, so leaf 3's unchanged profile diverges more
        star = network({"hub": 3, "x": 1, "y": 1, "z": 1},
                       {(0, 1): 1, (0, 2): 1, (0, 3): 1})
        grown = network({"hub": 3, "x": 2, "y": 2, "z": 1},
                        {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 1})
        before = relevance_scores(star)[3]
        after = relevance_scores(grown)[3]
        assert before == pytest.approx(math.log(2), abs=1e-12)
        assert after == pytest.approx(math.log(8 / 3), abs=1e-12)
        assert after > before

    def test_matches_direct_formula_on_random_networks(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 10)
            edges = {}
            for i, j in combinations(range(n), 2):
                if rng.random() < 0.5:
                    edges[(i, j)] = rng.randint(1, 5)
            if len(edges) < 2:
                continue
            net = network({f"t{k}": 3 for k in range(n)}, edges)
            got = relevance_scores(net)
            w = [0] * n
            for (i, j), c in edges.items():
                w[i] += c
                w[j] += c
            total = sum(edges.values())
            for i in range(n):
                if w[i] == 0:
                    assert got[i] == 0.0
                    continue
                expected = 0.0
                for j in range(n):
                    c = edges.get((min(i, j), max(i, j)), 0) if i != j else 0
                    if c:
                        p = c / w[i]
                        expected += p * math.log(p / (w[j] / (2 * total)))
                assert got[i] == pytest.approx(expected, rel=1e-12)
                assert got[i] >= 0.0

    def test_needs_two_connected_terms(self):
        with pytest.raises(ValueError):
            relevance_scores(network({"a": 1, "b": 1}, {}))

    def test_deterministic(self):
        net = network({"a": 1, "b": 2, "c": 1}, {(0, 1): 1, (1, 2): 1})
        assert relevance_scores(net) == relevance_scores(net)

    def test_scores_keep_their_bits_under_a_compensated_sum(self, monkeypatch):
        # from Python 3.12 the builtin sum() compensates float rounding; the scores must not depend on it
        rng = random.Random(11)
        edges = {(i, j): rng.randint(1, 9) for i, j in combinations(range(40), 2) if rng.random() < 0.4}
        net = network({f"t{k:02d}": 1 for k in range(40)}, edges)
        plain = relevance_scores(net)
        monkeypatch.setattr("citemap.network.sum", compensated_sum, raising=False)
        assert relevance_scores(net) == plain


def scored_network(n: int):
    """n chained terms with strictly decreasing relevance surrogate."""
    terms = {f"term{k:03d}": n - k for k in range(n)}
    edges = {(k, k + 1): 1 for k in range(n - 1)}
    net = network(terms, edges)
    scores = tuple(float(n - k) for k in range(n))
    return net, scores


class TestSelectTopTerms:
    @pytest.mark.parametrize(
        "n,kept_before,n_excl,kept_after",
        [(27, 16, 1, 15), (184, 110, 13, 97), (512, 307, 10, 297)],
    )
    def test_selection_arithmetic(self, n, kept_before, n_excl, kept_after):
        net, scores = scored_network(n)
        exclusions = {f"term{k:03d}" for k in range(n_excl)}  # all hit retained terms
        assert top_count(0.6, n) == kept_before == len(select_top_terms(net, scores, 0.6).terms)
        selected = select_top_terms(net, scores, 0.6, exclusions)
        assert len(selected.terms) == kept_after

    def test_fraction_one_is_identity(self):
        net, scores = scored_network(9)
        selected = select_top_terms(net, scores, 1.0)
        assert selected.term_strings == net.term_strings

    def test_exact_floor_at_rational_boundaries(self):
        net, scores = scored_network(15)
        assert len(select_top_terms(net, scores, 0.6).terms) == 9  # 0.6 * 15 == 9 exactly
        net, scores = scored_network(100)
        assert len(select_top_terms(net, scores, 0.29).terms) == top_count(0.29, 100) == 29  # 0.29 * 100 < 29 in floats

    def test_too_small_fraction(self):
        net, scores = scored_network(5)
        with pytest.raises(ValueError, match="fraction too small for lexicon"):
            select_top_terms(net, scores, 0.1)

    def test_invalid_fraction(self):
        net, scores = scored_network(5)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                select_top_terms(net, scores, bad)

    def test_tie_breaks_occurrences_then_lexicographic(self):
        net = network({"delta": 5, "alpha": 5, "bravo": 9}, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
        scores = (1.0, 1.0, 1.0)
        selected = select_top_terms(net, scores, 0.67)  # floor(2.01) = 2
        # equal scores: higher occurrences first (bravo), then 'alpha' < 'delta'
        assert set(selected.term_strings) == {"bravo", "alpha"}

    def test_monotone_in_fraction(self):
        net, scores = scored_network(20)
        retained = {}
        for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
            retained[fraction] = set(select_top_terms(net, scores, fraction).term_strings)
        fractions = sorted(retained)
        for small, large in zip(fractions, fractions[1:]):
            assert retained[small] <= retained[large]

    def test_edges_restricted_to_retained(self):
        net, scores = scored_network(10)
        selected = select_top_terms(net, scores, 0.5)
        n = len(selected.terms)
        assert all(0 <= i < j < n for (i, j) in selected.edges)


EDGE_WEIGHTS = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] < p[1]),
    st.integers(1, 9),
    min_size=1,
    max_size=12,
)


class TestNetworkProperties:
    @given(EDGE_WEIGHTS, st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_association_scale_invariance_property(self, edges, k):
        net = network({f"t{i}": 9 for i in range(6)}, edges)
        scaled = network({f"t{i}": 9 for i in range(6)}, {p: c * k for p, c in edges.items()})
        assert association_strength(net).strengths == association_strength(scaled).strengths
