"""Co-occurrence network construction, association strength, relevance.

Edges count units in which two terms co-occur (binary) or, in full mode,
the per-unit minimum of the two terms' occurrence counts. Pairs are counted
by ``Counter`` over each unit's ``itertools.combinations``, so the per-pair
loop runs in C. Full counting counts layers k = 0, 1, ...: layer k holds,
per unit, the terms the unit contains more than k times, and
min(times_i, times_j) is the number of layers that hold both terms, so every
count is an integer sum of ones.

Association strength normalizes a count by both node strengths so that the
expected value under independent attachment is 1; relevance scores a term
by how far its co-occurrence profile diverges from the background strength
distribution, so generic terms score near 0.

Both network types own their pairs: each stores its pairs (i, j) with
0 <= i < j < n, iterating in ascending pair order whatever order they were
given in, so no consumer re-sorts them. A similarity matrix keeps every
term of its network, isolated ones included; the pipeline's relevance cut
is what leaves terms without an edge off a map.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from typing import Iterable, Sequence

from .errors import ConfigError, ConsistencyError
from .terms import Lexicon

BINARY = "binary"
FULL = "full"
COUNTINGS = (BINARY, FULL)


@dataclass(frozen=True)
class TermNode:
    term: str
    occurrences: int


@dataclass(frozen=True)
class CoocNetwork:
    """Symmetric co-occurrence network; each unordered pair stored once, in pair order."""

    terms: tuple[TermNode, ...]
    edges: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", _in_pair_order(self.edges))
        _check_pairs(self.edges, len(self.terms))
        for pair, count in self.edges.items():
            if count <= 0:
                raise ConsistencyError(f"edge {pair} has non-positive count {count}")

    @property
    def term_strings(self) -> tuple[str, ...]:
        return tuple(node.term for node in self.terms)

    def node_strengths(self) -> list[int]:
        """w_i = sum of co-occurrence counts on edges at i."""
        w = [0] * len(self.terms)
        for (i, j), count in self.edges.items():
            w[i] += count
            w[j] += count
        return w

    def subnetwork(self, indices: Sequence[int]) -> "CoocNetwork":
        """Restriction to the given term indices (ascending), edges remapped."""
        indices = sorted(indices)
        remap = {old: new for new, old in enumerate(indices)}
        terms = tuple(self.terms[i] for i in indices)
        edges = {
            (remap[i], remap[j]): c
            for (i, j), c in self.edges.items()
            if i in remap and j in remap
        }
        return CoocNetwork(terms, edges)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Association strengths for every co-occurring pair, stored in pair order; all finite."""

    terms: tuple[str, ...]
    strengths: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strengths", _in_pair_order(self.strengths))
        _check_pairs(self.strengths, len(self.terms))
        for pair, s in self.strengths.items():
            if not math.isfinite(s):
                raise ValueError(f"non-finite similarity {s!r} on pair {pair}")


def _in_pair_order(values: dict) -> dict:
    # sorting the pairs alone, not the items, lets sort compare tuples of ints by its fast path
    return {pair: values[pair] for pair in sorted(values)}


def _check_pairs(pairs: Iterable[tuple[int, int]], n: int) -> None:
    """Raise ConsistencyError unless every pair (i, j) has 0 <= i < j < n."""
    for i, j in pairs:
        if not (0 <= i < j < n):
            raise ConsistencyError(f"pair ({i}, {j}) is not an ordered pair of term indices")


def count_cooccurrences(units: Sequence[str], lexicon: Lexicon, counting: str = BINARY) -> CoocNetwork:
    """Build the co-occurrence network of the lexicon's terms over the units.

    Binary counting adds 1 per unit containing both terms; full counting
    adds min(times_i, times_j) per unit. The lexicon must have been built
    from the same units: its entries refer to a unit by its position in
    ``units``, and only the number of units is read here. Full counting
    counts the layers of the module docstring, one ``Counter`` update each.
    """
    if counting not in COUNTINGS:
        raise ConfigError(f"counting must be '{BINARY}' or '{FULL}', got {counting!r}")
    terms = tuple(TermNode(e.term, e.occurrence_count) for e in lexicon)
    # one slot per unit, filled in lexicon-index order, so each is ascending
    layer: list[list[int]] = [[] for _ in units]
    repeated: list[tuple[int, int, int]] = []  # full counting's (position, index, times > 1)
    for index, entry in enumerate(lexicon):
        if not entry.unit_counts:
            raise ConsistencyError(f"term {entry.term!r} is in the lexicon but matched no unit")
        if min(entry.unit_counts) < 0 or max(entry.unit_counts) >= len(units):
            stray = [u for u in entry.unit_counts if not 0 <= u < len(units)]
            raise ConsistencyError(f"term {entry.term!r} counts unit position(s) {stray} outside 0..{len(units) - 1}")
        for position in entry.unit_counts:
            layer[position].append(index)
        if counting == FULL:
            repeated += [(position, index, times) for position, times in entry.unit_counts.items() if times > 1]
    edges: Counter[tuple[int, int]] = Counter()
    depth = 0
    while layer:
        edges.update(chain.from_iterable(map(combinations, layer, repeat(2))))
        depth += 1
        repeated = [held for held in repeated if held[2] > depth]
        deeper: dict[int, list[int]] = {}  # the next layer's slots, ascending as above
        for position, index, _ in repeated:
            deeper.setdefault(position, []).append(index)
        layer = list(deeper.values())
    return CoocNetwork(terms, edges)


def association_strength(net: CoocNetwork) -> SimilarityMatrix:
    """s_ij = 2*T*c_ij / (w_i*w_j) for every edge, over all of the network's terms.

    T is the total count and w_i the node strength. An isolated term keeps
    its index and simply has no pair. Computed from integers before a single
    float division, so scaling all counts by a constant leaves every
    strength bit-identical.
    """
    if not net.edges:
        raise ValueError("association strength needs at least one edge")
    w = net.node_strengths()
    total = sum(net.edges.values())
    strengths = {(i, j): (2 * total * c) / (w[i] * w[j]) for (i, j), c in net.edges.items()}
    return SimilarityMatrix(net.term_strings, strengths)


def profile_divergence(profile: dict[int, float], background: dict[int, float]) -> float:
    """sum_j p(j) * ln(p(j) / q(j)) over the profile's support, added left to right in j order."""
    total = 0.0  # not the builtin sum(), which compensates from Python 3.12 on and so moves the last bits
    for j, p in sorted(profile.items()):
        if p > 0:
            total += p * math.log(p / background[j])
    return total


def relevance_scores(net: CoocNetwork) -> tuple[float, ...]:
    """Divergence of each term's co-occurrence profile from the background.

    With p_i(j) = c_ij / w_i and q(j) = w_j / (2T), the score is
    sum_j p_i(j) * ln(p_i(j) / q(j)) over co-occurring j. Isolated terms
    score 0.
    """
    w = net.node_strengths()
    if sum(1 for weight in w if weight > 0) < 2:
        raise ValueError("relevance scores need at least 2 terms with positive strength")
    total = sum(net.edges.values())
    neighbors: dict[int, dict[int, int]] = {}
    for (i, j), c in net.edges.items():
        neighbors.setdefault(i, {})[j] = c
        neighbors.setdefault(j, {})[i] = c
    background = {j: w[j] / (2 * total) for j in range(len(net.terms)) if w[j] > 0}
    values = []
    for i in range(len(net.terms)):
        if w[i] == 0:
            values.append(0.0)
            continue
        profile = {j: c / w[i] for j, c in neighbors[i].items()}
        # mathematically >= 0; the floor only absorbs float round-off
        values.append(max(0.0, profile_divergence(profile, background)))
    return tuple(values)


def top_count(fraction: float, n: int) -> int:
    """floor(fraction * n) as an exact rational: 0.6 of 15 terms is 9, not floor(8.999...)."""
    return int(Fraction(str(fraction)) * n)


def select_top_terms(
    net: CoocNetwork,
    scores: Sequence[float],
    fraction: float,
    exclusions: Iterable[str] = (),
) -> CoocNetwork:
    """Keep the ``top_count(fraction, n)`` most relevant terms, then drop exclusions.

    Ties break toward higher occurrence count, then lexicographically
    ascending. Edges are restricted to the retained terms.
    """
    if not 0 < fraction <= 1:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    n = len(net.terms)
    if len(scores) != n:
        raise ConsistencyError(f"{len(scores)} scores for {n} terms")
    k = top_count(fraction, n)
    if k == 0:
        raise ValueError("fraction too small for lexicon")
    order = sorted(
        range(n),
        key=lambda i: (-scores[i], -net.terms[i].occurrences, net.terms[i].term),
    )
    retained = sorted(order[:k])
    exclusion_set = frozenset(exclusions)
    final = [i for i in retained if net.terms[i].term not in exclusion_set]
    return net.subnetwork(final)
