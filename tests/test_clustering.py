"""Clustering: quality function, optimizer vs. exhaustive oracle, invariances."""

from __future__ import annotations

import itertools
import math
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citemap.clustering as clustering_module
import citemap.fork as fork_module
from citemap.cli import main
from citemap.clustering import Clustering, cluster, quality
from citemap.errors import ConfigError, ConsistencyError, StageError
from citemap.pipeline import PipelineConfig, Run, run_pipeline
from citemap.terms import CITATION_CONTEXT, TITLE_ABSTRACT

from conftest import assert_no_children_left, set_cpus, sim


def enumerate_optimum(n: int, strengths: dict[tuple[int, int], float], resolution: float):
    """Exhaustive search over all set partitions, built incrementally.

    Independent of the optimizer: recursion over restricted growth strings
    with the quality delta accumulated pair by pair.
    """
    best_quality = float("-inf")
    best_labels: list[int] = []

    def descend(v: int, labels: list[int], blocks: int, value: float) -> None:
        nonlocal best_quality, best_labels
        if v == n:
            if value > best_quality:
                best_quality, best_labels = value, labels[:]
            return
        for block in range(blocks + 1):
            delta = 0.0
            for u in range(v):
                if labels[u] == block:
                    delta += strengths.get((u, v), 0.0) - resolution
            labels.append(block)
            descend(v + 1, labels, max(blocks, block + 1), value + delta)
            labels.pop()

    descend(0, [], 0, 0.0)
    return best_quality, best_labels


def partition_sets(labels) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for index, label in enumerate(labels):
        groups.setdefault(label, set()).add(index)
    return {frozenset(g) for g in groups.values()}


TWO_CLIQUES = {
    (0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0,
    (3, 4): 1.0, (3, 5): 1.0, (4, 5): 1.0,
    (2, 3): 0.1,
}


class TestQuality:
    def test_singletons_score_zero(self):
        s = sim(4, {(0, 1): 2.0, (2, 3): 0.5})
        assert quality(s, [1, 2, 3, 4], resolution=1.0) == 0.0

    def test_triangle_single_cluster(self):
        s = sim(3, {(0, 1): 1.5, (0, 2): 1.5, (1, 2): 1.5})
        assert quality(s, [1, 1, 1], resolution=1.0) == pytest.approx(1.5)

    def test_accepts_clustering_object(self):
        s = sim(2, {(0, 1): 1.0})
        clustering = Clustering((1, 1), 0.5)
        assert quality(s, clustering, 0.5) == pytest.approx(0.5)

    def test_unassigned_term_rejected(self):
        s = sim(3, {(0, 1): 1.0})
        with pytest.raises(ConsistencyError):
            quality(s, [1, 1], resolution=1.0)

    def test_intra_cluster_non_edges_penalized(self):
        s = sim(3, {(0, 1): 2.0})  # pair (0,2) and (1,2) have no edge
        assert quality(s, [1, 1, 1], resolution=0.5) == pytest.approx(2.0 - 3 * 0.5)

    def test_scaling_identity_with_k2(self):
        strengths = {(0, 1): 0.75, (1, 2): 1.25, (0, 3): 0.5, (2, 3): 2.0}
        s1 = sim(4, strengths)
        s2 = sim(4, {p: 2.0 * v for p, v in strengths.items()})
        for labels in itertools.product([1, 2], repeat=4):
            assert quality(s2, list(labels), 2.0 * 0.8) == 2.0 * quality(s1, list(labels), 0.8)


class TestClusterDegenerate:
    def test_two_cliques_with_weak_bridge(self):
        clustering = cluster(sim(6, TWO_CLIQUES), resolution=0.5, seed=42, restarts=10)
        assert clustering.n_clusters == 2
        assert partition_sets(clustering.assignment) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
        optimum, labels = enumerate_optimum(6, TWO_CLIQUES, 0.5)
        assert clustering.quality == pytest.approx(optimum, abs=1e-12)
        assert partition_sets(labels) == partition_sets(clustering.assignment)

    def test_resolution_above_max_strength_gives_singletons(self):
        s = sim(5, {(0, 1): 0.9, (1, 2): 0.8, (3, 4): 0.7})
        clustering = cluster(s, resolution=1.0, seed=1, restarts=5)
        assert clustering.n_clusters == 5
        assert clustering.quality == 0.0

    def test_single_edge_pairs_up(self):
        clustering = cluster(sim(2, {(0, 1): 1.0}), resolution=0.5, seed=3, restarts=3)
        assert clustering.assignment == (1, 1)
        assert clustering.quality == pytest.approx(0.5)
        optimum, _ = enumerate_optimum(2, {(0, 1): 1.0}, 0.5)
        assert optimum == pytest.approx(0.5)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            cluster(sim(0, {}), resolution=1.0)

    def test_nan_strength_rejected(self):
        with pytest.raises(ValueError, match="non-finite similarity nan on pair"):
            cluster(sim(3, {(0, 1): 1.0, (1, 2): math.nan}), resolution=1.0)

    def test_parameter_validation(self):
        s = sim(2, {(0, 1): 1.0})
        with pytest.raises(ConfigError):
            cluster(s, resolution=0.0)
        with pytest.raises(ConfigError):
            cluster(s, resolution=1.0, restarts=0)

    @pytest.mark.parametrize("resolution", [math.inf, math.nan])
    def test_non_finite_resolution_rejected(self, resolution):
        with pytest.raises(ConfigError, match="resolution must be finite and > 0"):
            cluster(sim(6, TWO_CLIQUES), resolution=resolution)

    def test_ids_contiguous_from_one(self):
        clustering = cluster(sim(6, TWO_CLIQUES), resolution=0.5, seed=9, restarts=4)
        assert sorted(set(clustering.assignment)) == list(range(1, clustering.n_clusters + 1))


def random_graph(rng: random.Random):
    n = rng.randint(2, 8)
    strengths = {}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < rng.uniform(0.2, 0.9):
            strengths[(i, j)] = round(rng.uniform(0.05, 2.0), 3)
    resolution = round(rng.uniform(0.1, 1.5), 3)
    return n, strengths, resolution


class TestClusterOptimality:
    def test_matches_exhaustive_search(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 40:
            n, strengths, resolution = random_graph(rng)
            if not strengths:
                continue
            checked += 1
            clustering = cluster(sim(n, strengths), resolution=resolution, seed=checked, restarts=10)
            optimum, _ = enumerate_optimum(n, strengths, resolution)
            assert clustering.quality == pytest.approx(optimum, abs=1e-9), (
                f"n={n} strengths={strengths} resolution={resolution}"
            )
            # the reported quality must equal the canonical evaluation
            assert clustering.quality == pytest.approx(
                quality(sim(n, strengths), clustering, resolution), abs=1e-12
            )

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        n, strengths, resolution = 7, {}, 0.6
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                strengths[(i, j)] = round(rng.uniform(0.1, 2.0), 3)
        permutation = list(range(n))
        rng.shuffle(permutation)
        remapped = {}
        for (i, j), s in strengths.items():
            a, b = permutation[i], permutation[j]
            remapped[(min(a, b), max(a, b))] = s
        original = cluster(sim(n, strengths), resolution=resolution, seed=11, restarts=10)
        permuted = cluster(sim(n, remapped), resolution=resolution, seed=11, restarts=10)
        mapped_sets = {
            frozenset(permutation[i] for i in block)
            for block in partition_sets(original.assignment)
        }
        assert mapped_sets == partition_sets(permuted.assignment)
        assert original.quality == pytest.approx(permuted.quality, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(8)
        strengths = {}
        for i, j in itertools.combinations(range(12), 2):
            if rng.random() < 0.4:
                strengths[(i, j)] = rng.uniform(0.1, 2.0)
        s = sim(12, strengths)
        first = cluster(s, resolution=0.9, seed=123, restarts=6)
        second = cluster(s, resolution=0.9, seed=123, restarts=6)
        assert first.assignment == second.assignment
        assert first.quality == second.quality  # bit-for-bit

    def test_count_scaling_keeps_partition(self):
        # strengths scaled together with the resolution: argmax unchanged
        rng = random.Random(13)
        strengths = {}
        for i, j in itertools.combinations(range(8), 2):
            if rng.random() < 0.5:
                strengths[(i, j)] = round(rng.uniform(0.1, 2.0), 3)
        base = cluster(sim(8, strengths), resolution=0.7, seed=5, restarts=8)
        doubled = {p: 2.0 * v for p, v in strengths.items()}
        scaled = cluster(sim(8, doubled), resolution=1.4, seed=5, restarts=8)
        assert partition_sets(base.assignment) == partition_sets(scaled.assignment)
        assert scaled.quality == pytest.approx(2.0 * base.quality, rel=1e-12)


def planted_lognormal(seed: int, n: int = 150, groups: int = 5, p_in: float = 0.3, p_out: float = 0.05):
    """Sparse planted-group graph whose strengths are log-normal(0, 1.5), rounded to 4 places."""
    rng = random.Random(seed)
    group = [rng.randrange(groups) for _ in range(n)]
    strengths = {}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < (p_in if group[i] == group[j] else p_out):
            strengths[(i, j)] = round(rng.lognormvariate(0.0, 1.5), 4)
    return sim(n, strengths)


# seed -> (nodes, resolution, Q hex, assignment) of cluster(planted_lognormal(seed, nodes), resolution,
# seed=seed, restarts=3). On the four 100-200-node graphs the optimizer aggregates at least three
# levels deep. Every graph skips the first pass of most patience cycles, whose labels are already a
# fixpoint. The labels change, so that mark must reset, when on graph 45 a cycle whose first pass
# found no move improves Q. On the small graph 36 a variable-depth chain pass escapes, which none of
# the larger ones does. So every private helper of the optimizer contributes to a pinned result.
MID_SIZE_PINS = {
    2: (150, 0.5, "0x1.102fa02752546p+11", """
        1 2 3 4 5 4 6 7 8 9 10 11 5 7 12 13 14 3 1 2 6 2 15 16 9 17 18 1 9 19 3 2 7 10 13
        20 19 18 12 9 17 4 21 22 8 23 11 17 24 9 13 4 8 2 1 19 21 12 3 14 12 17 21 16 9 18
        14 21 21 16 12 18 17 14 25 9 11 6 16 22 12 7 9 22 7 7 4 5 1 22 14 15 10 4 1 11 15
        15 3 15 15 7 5 15 17 5 5 20 18 13 3 13 13 14 1 18 7 21 14 13 15 2 10 3 21 4 7 14 2
        21 15 9 22 14 12 18 14 1 4 22 1 6 4 14 13 1 11 9 21 2"""),
    45: (150, 0.5, "0x1.aef226809d493p+10", """
        1 2 3 4 5 3 5 6 7 8 6 5 4 8 7 8 3 9 10 3 11 12 8 8 6 8 13 5 6 14 15 1 9 9 16 5 17
        6 1 7 18 3 14 19 5 20 2 18 1 11 21 10 22 11 18 10 8 4 10 22 8 23 24 12 8 3 14 2 18
        16 6 20 7 3 17 11 4 9 4 20 15 23 6 4 8 18 6 17 15 10 9 2 8 22 14 12 16 4 25 3 11
        17 8 14 26 2 19 5 22 3 19 12 6 19 14 20 27 3 26 8 8 12 4 14 26 20 26 3 22 16 4 19
        10 20 21 26 7 2 10 2 14 2 16 27 3 23 5 14 22 25"""),
    12: (200, 1.0, "0x1.5e1ad35a85878p+11", """
        1 2 2 3 4 5 6 7 8 3 5 9 8 10 11 10 12 13 14 15 14 12 16 17 18 19 20 7 7 14 11 21 22
        23 18 1 24 25 26 12 2 14 3 10 27 28 29 30 20 30 6 21 8 27 17 31 32 31 21 6 33 8 34
        28 2 35 26 36 1 4 37 20 1 38 29 39 33 6 40 28 5 3 41 12 6 11 13 17 32 23 42 33 27 31
        14 25 24 2 11 1 21 3 21 38 1 15 7 26 42 17 42 10 27 41 34 14 27 18 43 29 29 44 14 43
        44 20 21 41 2 38 31 14 23 2 12 36 19 14 11 43 3 34 6 31 30 44 26 12 31 40 34 32 2 31
        38 20 23 7 22 14 25 28 28 27 21 14 18 8 25 23 31 11 11 32 21 3 40 6 26 24 21 38 31
        33 18 15 44 45 33 3 18 22 44 25 6 31 22 3 23 27"""),
    53: (100, 1.0, "0x1.738a88ce703aep+9", """
        1 2 3 4 5 6 7 8 9 9 10 11 12 6 13 3 9 14 15 16 16 17 1 1 18 19 8 15 20 6 8 11 21 22
        10 23 3 8 18 18 4 3 5 15 6 24 3 25 26 17 27 2 13 28 13 26 29 30 31 22 17 16 4 1 19 8
        32 9 12 15 27 12 29 14 5 5 33 6 3 21 21 3 12 34 5 21 17 25 22 10 23 2 1 24 6 22 21 3
        16 15"""),
    36: (20, 0.5, "0x1.5c56d5cfaacdap+3", "1 2 3 4 5 6 7 3 8 1 9 10 11 1 12 3 13 14 6 15"),
}


def rows(graph) -> list[list[tuple[int, float]]]:
    """The optimizer's adjacency rows: (neighbour, weight), ascending neighbour."""
    adj: list[list[tuple[int, float]]] = [[] for _ in graph.terms]
    for (i, j), s in graph.strengths.items():
        adj[i].append((j, s))
        adj[j].append((i, s))
    return adj


@pytest.mark.usefixtures("deadline")
class TestMidSizePins:
    @pytest.mark.parametrize("seed", sorted(MID_SIZE_PINS))
    def test_assignment_and_quality_are_pinned(self, monkeypatch, seed):
        nodes, resolution, quality_hex, assignment = MID_SIZE_PINS[seed]
        graph = planted_lognormal(seed, nodes)
        for cpus in (1, 2):  # in this process, then forked
            set_cpus(monkeypatch, cpus)
            clustering = cluster(graph, resolution=resolution, seed=seed, restarts=3)
            assert clustering.quality.hex() == quality_hex
            assert clustering.assignment == tuple(int(label) for label in assignment.split())

    @pytest.mark.parametrize("seed", sorted(MID_SIZE_PINS))
    def test_settled_cycles_start_from_a_fixpoint(self, monkeypatch, seed):
        """A cycle whose first pass is skipped starts from labels no single move improves."""
        nodes, resolution, _, _ = MID_SIZE_PINS[seed]
        real_slm = clustering_module._slm
        moved = []

        def slm(adj, sizes, resolution, rng, init_labels, settled=False):
            if settled:
                labels = list(init_labels)
                moved.append(clustering_module._local_move(adj, sizes, labels, resolution, random.Random(0)))
            return real_slm(adj, sizes, resolution, rng, init_labels, settled)

        monkeypatch.setattr(clustering_module, "_slm", slm)
        set_cpus(monkeypatch, 1)
        cluster(planted_lognormal(seed, nodes), resolution=resolution, seed=seed, restarts=3)
        assert moved and not any(moved)


class TestFixpointPass:
    """A pass over a fixpoint moves nothing and draws only its shuffle from the generator."""

    @pytest.mark.parametrize("settled", [False, True])
    def test_second_pass_only_shuffles(self, settled):
        graph = planted_lognormal(2)
        adj, sizes, n = rows(graph), [1] * len(graph.terms), len(graph.terms)
        labels, rng = list(range(n)), random.Random(3)
        assert clustering_module._local_move(adj, sizes, labels, 0.5, rng)
        fixpoint = list(labels)
        twin = random.Random()
        twin.setstate(rng.getstate())
        assert not clustering_module._local_move(adj, sizes, labels, 0.5, rng, settled)
        assert labels == fixpoint
        twin.shuffle(list(range(n)))
        assert rng.getstate() == twin.getstate()


class TestEscapeResetsSettled:
    def test_accepted_escape_clears_the_fixpoint_mark(self, monkeypatch):
        """An accepted chain-pass escape moves labels, so the next cycle must not skip its first pass."""
        settled_args, escapes = [], []

        def slm(adj, sizes, resolution, rng, init_labels, settled=False):
            settled_args.append(settled)
            return list(init_labels), True  # nothing moved: the labels were a fixpoint

        def chain_pass(adj, sizes, labels, resolution, rng):
            if escapes:
                return False
            escapes.append(len(settled_args))
            labels[1] = labels[0]  # pairs nodes 0 and 1: Q rises from 0 to 2 - 1
            return True

        monkeypatch.setattr(clustering_module, "_slm", slm)
        monkeypatch.setattr(clustering_module, "_chain_pass", chain_pass)
        graph = sim(3, {(0, 1): 2.0})
        labels, current = clustering_module._restart(graph, rows(graph), 1.0, 0, 0)
        assert (labels, current) == ([0, 0, 2], 1.0)
        assert escapes == [1]  # right after the first cycle, which returned settled=True
        # the cycle after the escape starts unsettled; the patience cycles after it are settled
        assert settled_args == [False, False] + [True] * (clustering_module._CHAIN_PATIENCE - 1)


class InOrder(random.Random):
    """A generator whose shuffle keeps the order, so a pass visits nodes 0, 1, 2, ..."""

    def shuffle(self, x) -> None:
        pass


class TestChainPassTies:
    """Node 0 moves first and its move is the chain's best prefix; the others' moves are undone."""

    def test_tied_clusters_go_to_the_lowest_label(self):
        # node 0 is a singleton tied to nodes 1 and 2 (labels 1 and 2): worth 2 - 1 = 1 in each
        adj = [[(1, 2.0), (2, 2.0)], [(0, 2.0)], [(0, 2.0)]]
        labels = [0, 1, 2]
        assert clustering_module._chain_pass(adj, [1, 1, 1], labels, 1.0, InOrder())
        assert labels == [1, 1, 2]

    def test_fresh_singleton_wins_a_tie_at_zero(self):
        # node 0 leaves a cluster it shares with the unlinked node 1 (stay -1); joining
        # node 2's cluster is worth 1 - 1 = 0, the same as a fresh singleton (label 2)
        adj = [[(2, 1.0)], [], [(0, 1.0)]]
        labels = [0, 0, 1]
        assert clustering_module._chain_pass(adj, [1, 1, 1], labels, 1.0, InOrder())
        assert labels == [2, 0, 1]


class TestRefinement:
    """One greedy Leiden pass per cluster, visiting nodes 0, 1, 2, ... under ``InOrder``, resolution 1."""

    def test_only_well_connected_nodes_move(self):
        # {0, 1} forms first, with E({0, 1}, S - {0, 1}) = 4.25 >= 1 * 2 * (4 - 2). Node 2 would gain
        # 2.5 - 2 > 0 there, but E(2, S - 2) = 2.5 < 1 * (4 - 1); node 3 would gain nothing.
        adj = rows(sim(4, {(0, 1): 4.0, (0, 2): 1.25, (1, 2): 1.25, (0, 3): 1.75}))
        assert clustering_module._refine(adj, [1] * 4, [0] * 4, 1.0, InOrder()) == ([0, 0, 1, 2], [0, 0, 0])

    def test_tied_subclusters_go_to_the_lowest_label(self):
        # node 0 is worth 2 - 1 in node 1's and in node 2's singleton; node 2 is then worth 2 - 2 = 0 in {0, 1}
        adj = rows(sim(3, {(0, 1): 2.0, (0, 2): 2.0}))
        assert clustering_module._refine(adj, [1] * 3, [5] * 3, 1.0, InOrder()) == ([0, 0, 1], [5, 5])

    def test_only_well_connected_subclusters_are_joined(self):
        # {0, 1} forms first, with E({0, 1}, S - {0, 1}) = 5.25 + 5.25 - 2 * 4 = 2.5 < 1 * 2 * (4 - 2).
        # Node 2 would gain 2.5 - 2 > 0 there, and node 3 is not well connected.
        adj = rows(sim(4, {(0, 1): 4.0, (0, 2): 1.25, (1, 2): 1.25, (2, 3): 1.0}))
        assert clustering_module._refine(adj, [1] * 4, [0] * 4, 1.0, InOrder()) == ([0, 0, 1, 2], [0, 0, 0])

    def test_one_shuffle_per_cluster_of_two_or_more(self):
        graph = planted_lognormal(2)
        adj, sizes, n = rows(graph), [1] * len(graph.terms), len(graph.terms)
        labels = list(range(n))
        clustering_module._local_move(adj, sizes, labels, 0.5, random.Random(3))
        cluster_sizes = [labels.count(label) for label in sorted(set(labels))]
        assert 1 in cluster_sizes and max(cluster_sizes) > 1
        rng, twin = random.Random(4), random.Random(4)
        refined, parent = clustering_module._refine(adj, sizes, labels, 0.5, rng)
        for size in cluster_sizes:
            if size > 1:
                twin.shuffle(list(range(size)))
        assert rng.getstate() == twin.getstate()
        assert len(set(labels)) < len(parent) < n
        assert all(parent[refined[v]] == labels[v] for v in range(n))
        assert not disconnected_clusters(graph, refined)


def disconnected_clusters(graph, assignment) -> list[int]:
    """The clusters whose members are not joined by the graph's edges within the cluster."""
    neighbours: list[list[int]] = [[] for _ in assignment]
    for i, j in graph.strengths:
        if assignment[i] == assignment[j]:
            neighbours[i].append(j)
            neighbours[j].append(i)
    groups: dict[int, list[int]] = {}
    for v, label in enumerate(assignment):
        groups.setdefault(label, []).append(v)
    disconnected = []
    for label, members in groups.items():
        reached, stack = {members[0]}, [members[0]]
        while stack:
            for u in neighbours[stack.pop()]:
                if u not in reached:
                    reached.add(u)
                    stack.append(u)
        if len(reached) < len(members):
            disconnected.append(label)
    return disconnected


# up to 10 nodes, and so 45 edges: cluster() runs its restarts in this process
SMALL_GRAPHS = st.integers(2, 10).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda pair: pair[0] < pair[1]),
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),  # few values, so ties are common
    max_size=30,
)))


class TestConnectedClusters:
    """Every cluster that cluster() returns induces a connected subgraph.

    Leiden's refinement guarantees it for the result of every SLM cycle; a
    chain pass's labels win only when no later cycle improves on them.
    """

    @given(SMALL_GRAPHS, st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.integers(0, 99), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_small_graphs(self, graph, resolution, seed, restarts):
        n, strengths = graph
        s = sim(n, strengths)
        assert not disconnected_clusters(s, cluster(s, resolution, seed, restarts).assignment)

    @pytest.mark.parametrize("seed", sorted(MID_SIZE_PINS))
    def test_pinned_graphs(self, seed):
        nodes, _, _, assignment = MID_SIZE_PINS[seed]  # what cluster() returns, by TestMidSizePins
        labels = [int(label) for label in assignment.split()]
        assert not disconnected_clusters(planted_lognormal(seed, nodes), labels)


# (network, resolution) -> (Q hex, assignment) of the pipeline's clustering of the bundled planted
# corpus, default settings otherwise. Frozen with SLM's refine-to-fixpoint; Leiden's refinement keeps
# them bit for bit.
PLANTED_PINS = {
    ("cited", 1.0): ("0x1.1afa65b11f218p+7", "1 2 3 2 1 1 2 3 1 3 2 2 3 3 3 1 3 2 1 2 3 3 3 3 3 2 2 1 1 1 2"),
    ("cited", 2.0): ("0x1.fd0f2fc04819cp+5", "1 2 3 4 5 1 2 3 1 6 7 7 6 8 6 1 6 4 5 2 6 9 3 3 8 2 4 1 1 10 4"),
    ("citing", 1.0): ("0x1.5be48be0fa788p+8", """
        1 2 2 1 1 1 3 1 1 4 3 3 3 2 1 2 2 2 2 1 1 4 4 2 4 2 2 4 2 2 4 1 3 4 1 1 3 3 1 2 2 2 1 3 4 1 1"""),
    ("citing", 2.0): ("0x1.87be95cecae8ep+7", """
        1 2 2 3 4 5 6 7 4 8 9 6 9 5 3 5 2 2 10 7 1 1 8 5 1 5 10 8 2 10 8 4 9 8 4 1 9 6 1 2 2 10 4 6 8 1 4"""),
    ("context", 1.0): ("0x1.32446ea77cd38p+8", "1 2 2 1 3 2 1 3 1 3 4 3 1 2 1 4 2 4 1 4 2 4 2 4 4 1 4 2 3 4"),
    ("context", 2.0): ("0x1.d7d8b7ad95292p+7", "1 2 3 1 4 3 5 6 5 6 7 6 1 2 8 9 3 7 1 7 2 7 3 7 7 8 9 2 4 7"),
}
PLANTED_NETWORKS = {
    "cited": {"mode": TITLE_ABSTRACT, "doc_set": "cited"},
    "citing": {"mode": TITLE_ABSTRACT, "doc_set": "citing"},
    "context": {"mode": CITATION_CONTEXT},
}


@pytest.mark.parametrize("network, resolution", sorted(PLANTED_PINS))
def test_planted_corpus_clustering_is_pinned(planted_corpus, network, resolution):
    quality_hex, assignment = PLANTED_PINS[network, resolution]
    config = PipelineConfig(corpus=str(planted_corpus), resolution=resolution, **PLANTED_NETWORKS[network])
    clustering = Run(config).clustering
    assert clustering.quality.hex() == quality_hex
    assert clustering.assignment == tuple(int(label) for label in assignment.split())


@pytest.mark.usefixtures("deadline")
class TestParallelRestarts:
    @pytest.mark.parametrize("seed, n, restarts, cpus", [
        (2, 150, 3, 4),  # MID_SIZE_PINS: restarts < CPUs, one restart per worker
        (45, 150, 3, 4),
        (7, 200, 10, 4),  # uneven shares: the workers run 3, 3, 2 and 2 restarts
        (7, 200, 5, 2),
        (7, 200, 1, 4),  # a single restart never forks
    ])
    def test_forked_equals_inline(self, monkeypatch, seed, n, restarts, cpus):
        graph = planted_lognormal(seed, n)
        set_cpus(monkeypatch, 1)
        inline = cluster(graph, resolution=0.5, seed=seed, restarts=restarts)
        forks = []
        real_forked = fork_module.forked
        monkeypatch.setattr(fork_module, "forked", lambda *args: forks.append(args) or real_forked(*args))
        set_cpus(monkeypatch, cpus)
        forked = cluster(graph, resolution=0.5, seed=seed, restarts=restarts)
        assert len(forks) == (restarts > 1)
        assert forked.assignment == inline.assignment
        assert forked.quality.hex() == inline.quality.hex()
        if seed in MID_SIZE_PINS:
            assert forked.quality.hex() == MID_SIZE_PINS[seed][2]
        assert_no_children_left()

    def test_ties_go_to_the_earliest_restart(self, monkeypatch):
        # a unit-weight ring of 12 has two optimal pairings, and restarts find both
        ring = sim(12, {(i, i + 1): 1.0 for i in range(11)} | {(0, 11): 1.0})
        winners = {}
        for cpus in (1, 4):
            set_cpus(monkeypatch, cpus)
            winners[cpus] = [cluster(ring, resolution=0.5, seed=seed, restarts=10).assignment for seed in range(20)]
        assert len(set(winners[1])) == 2
        assert winners[4] == winners[1]

    def test_small_networks_stay_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.setattr(fork_module, "forked", lambda *args: pytest.fail("forked a small network"))
        largest = sim(8, {pair: 1.0 for pair in itertools.combinations(range(8), 2)})
        assert cluster(largest, resolution=0.5, seed=1, restarts=10).n_clusters == 1


FAILURES = [("child", "raise"), ("child", "exit"), ("parent", "raise")]


@pytest.mark.usefixtures("deadline")
class TestFailingWorker:
    """A worker that raises or dies ends the call promptly, and every child is reaped."""

    @pytest.fixture
    def fail_in(self, monkeypatch):
        def arm(where: str, how: str) -> type[Exception]:
            parent, real_slm = os.getpid(), clustering_module._slm

            def slm(*args):
                if (os.getpid() == parent) == (where == "parent"):
                    if how == "exit":
                        os._exit(1)
                    raise ValueError("injected clustering failure")
                return real_slm(*args)

            monkeypatch.setattr(clustering_module, "_slm", slm)
            set_cpus(monkeypatch, 4)
            return ValueError if where == "parent" else ChildProcessError
        return arm

    @pytest.mark.parametrize("where, how", FAILURES)
    def test_cluster_raises(self, fail_in, where, how):
        expected = fail_in(where, how)
        start = time.monotonic()
        with pytest.raises(expected):
            cluster(planted_lognormal(2), resolution=0.5, seed=2, restarts=10)
        assert time.monotonic() - start < 10.0
        assert_no_children_left()

    @pytest.mark.parametrize("where, how", FAILURES)
    def test_pipeline_stage_error_and_cli_exit_code(self, fail_in, where, how, demo_corpus, tmp_path, capsys):
        fail_in(where, how)
        with pytest.raises(StageError) as caught:
            run_pipeline(PipelineConfig(corpus=str(demo_corpus), out_dir=str(tmp_path / "run")))
        assert caught.value.stage == "cluster"
        assert_no_children_left()
        assert main(["pipeline", "--corpus", str(demo_corpus), "--out", str(tmp_path / "cli")]) == 3
        assert "stage 'cluster' failed" in capsys.readouterr().err
        assert_no_children_left()
