"""Frequency tables per cluster and the three-way network comparison.

Networks are compared pre-layout, on term sets and occurrence counts,
because coordinates are rotation-ambiguous. Two metrics operationalize
"more closely related": Jaccard over term sets and cosine over
occurrence-weighted term vectors. The triplet report asks whether the
cited-paper network and the citation-context network sit strictly closer
to each other than the citing-paper network sits to the context network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .clustering import Clustering
from .errors import ConsistencyError
from .network import CoocNetwork

TRIPLET_LABELS = ("cited", "citing", "context")


@dataclass(frozen=True)
class ComparisonReport:
    jaccard: dict[str, dict[str, float]]
    cosine: dict[str, dict[str, float]]
    ordering_holds: dict[str, bool]
    shared_terms: dict[str, tuple[str, ...]]


def frequency_table(net: CoocNetwork, clustering: Clustering, cluster_id: int, k: int) -> tuple[tuple[str, int], ...]:
    """The k most frequent terms of one cluster: ``(term, occurrences)`` rows,
    descending by occurrences then ascending by term."""
    if len(clustering.assignment) != len(net.terms):
        raise ConsistencyError(f"{len(clustering.assignment)} assignments for {len(net.terms)} terms")
    if not 1 <= cluster_id <= clustering.n_clusters:
        raise ValueError(f"cluster {cluster_id} does not exist (1..{clustering.n_clusters})")
    members = clustering.members(cluster_id)
    ranked = sorted(
        ((net.terms[i].term, net.terms[i].occurrences) for i in members),
        key=lambda row: (-row[1], row[0]),
    )
    return tuple(ranked[:max(k, 0)])


def term_set_similarity(a: CoocNetwork, b: CoocNetwork) -> float:
    """Jaccard index of the two networks' normalized term sets."""
    set_a, set_b = set(a.term_strings), set(b.term_strings)
    union = set_a | set_b
    if not union:
        raise ValueError("term set similarity of two empty networks is undefined")
    return len(set_a & set_b) / len(union)


def weighted_profile_similarity(a: CoocNetwork, b: CoocNetwork) -> float:
    """Cosine similarity of occurrence-count vectors over the union vocabulary."""
    counts_a = {node.term: node.occurrences for node in a.terms}
    counts_b = {node.term: node.occurrences for node in b.terms}
    vocabulary = sorted(set(counts_a) | set(counts_b))
    dot = sum(counts_a.get(t, 0) * counts_b.get(t, 0) for t in vocabulary)
    norm_a = math.sqrt(sum(c * c for c in counts_a.values()))
    norm_b = math.sqrt(sum(c * c for c in counts_b.values()))
    if norm_a == 0 or norm_b == 0:
        raise ValueError("cannot take cosine similarity with a zero occurrence vector")
    return dot / (norm_a * norm_b)


def triplet_report(cited: CoocNetwork, citing: CoocNetwork, context: CoocNetwork) -> ComparisonReport:
    """Compare the three networks and evaluate the relatedness ordering.

    ``ordering_holds`` is true per metric iff sim(cited, context) is
    strictly greater than sim(citing, context); ties report false.
    """
    nets = dict(zip(TRIPLET_LABELS, (cited, citing, context)))
    for label, net in nets.items():
        if not net.terms:
            raise ValueError(f"{label} network is empty")
    jaccard = {a: {a: 1.0} for a in TRIPLET_LABELS}
    cosine = {a: {a: 1.0} for a in TRIPLET_LABELS}
    shared: dict[str, tuple[str, ...]] = {}
    for a, b in combinations(TRIPLET_LABELS, 2):
        jaccard[a][b] = jaccard[b][a] = term_set_similarity(nets[a], nets[b])
        cosine[a][b] = cosine[b][a] = weighted_profile_similarity(nets[a], nets[b])
        shared[f"{a}|{b}"] = tuple(sorted(set(nets[a].term_strings) & set(nets[b].term_strings)))
    ordering = {
        "jaccard": jaccard["cited"]["context"] > jaccard["citing"]["context"],
        "cosine": cosine["cited"]["context"] > cosine["citing"]["context"],
    }
    return ComparisonReport(jaccard, cosine, ordering, shared)
