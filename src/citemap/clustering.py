"""Resolution-parameterized clustering by iterated local moving.

The quality of a partition is Q = sum over same-cluster pairs i<j of
(s_ij - resolution), where s_ij is 0 for non-co-occurring pairs. Larger
resolutions penalize big clusters and yield more of them.

Optimization is smart local moving: single-node moves run until no move
improves Q; each cluster is then split into well-connected subclusters by
one greedy pass of Leiden's refinement (Traag, Waltman & van Eck 2019), so a
bad merge can split again; the refined partition is collapsed into an
aggregate network that starts from the unrefined clusters and is optimized
recursively. Each cluster of a cycle's result induces a connected subgraph.
Once that cycle stalls, variable-depth chain passes (forced best moves with
the best prefix kept) try to escape traps that no single improving move can
leave. The best of ``restarts`` seeded runs wins, ties going to the earliest
restart, so results are fully deterministic for a fixed (seed, restarts). A
node visit whose result is already known (no move since that node last found
none) is skipped; such a visit draws nothing at random, so the random stream
does not change.

Each restart draws only from its own seeded generator, so the restarts run
side by side in forked worker processes (``fork.forked``), one per CPU of this
process's affinity mask, and are merged in restart order. Networks below
``_PARALLEL_MIN_EDGES`` edges, and any call on one CPU, run the restarts in
this process. The result is the same bit for bit for any CPU count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from . import fork
from .errors import ConfigError, ConsistencyError
from .network import SimilarityMatrix

_MAX_ROUNDS = 1000  # safety stop; local moving terminates long before this
_CHAIN_PATIENCE = 8  # failed variable-depth attempts per restart before giving up
# Forking, piping and reaping the workers costs 6-12 ms with a 60-85 MB parent
# (2-CPU VM), which ten restarts at resolution 1 earn back from about 6-10
# edges up; a ~100-edge compare_1k context network saves 65-75 of 170-180 ms.
# Below this, and so on every graph of <= 8 nodes, restarts run in this process.
_PARALLEL_MIN_EDGES = 64


@dataclass(frozen=True)
class Clustering:
    """Cluster ids are contiguous and 1-based; one entry per term."""

    assignment: tuple[int, ...]
    quality: float

    @property
    def n_clusters(self) -> int:
        return max(self.assignment) if self.assignment else 0

    def members(self, cluster_id: int) -> list[int]:
        return [i for i, c in enumerate(self.assignment) if c == cluster_id]


def quality(sim: SimilarityMatrix, clustering: Clustering | Sequence[int], resolution: float) -> float:
    """Q = sum over same-cluster pairs of (s_ij - resolution)."""
    labels = clustering.assignment if isinstance(clustering, Clustering) else tuple(clustering)
    n = len(sim.terms)
    if len(labels) != n:
        raise ConsistencyError(f"{len(labels)} labels for {n} terms")
    edge_part = 0.0
    for (i, j), s in sim.strengths.items():
        if labels[i] == labels[j]:
            edge_part += s
    sizes: dict[int, int] = {}
    for label in labels:
        sizes[label] = sizes.get(label, 0) + 1
    pairs = sum(size * (size - 1) // 2 for size in sizes.values())
    return edge_part - resolution * pairs


_Rows = list[list[tuple[int, float]]]  # per node: (neighbour, weight), ascending neighbour


def _cluster_sizes(sizes: list[int], labels: list[int]) -> dict[int, int]:
    cluster_size: dict[int, int] = {}
    for size, label in zip(sizes, labels):
        cluster_size[label] = cluster_size.get(label, 0) + size
    return cluster_size


def _move(v: int, target: int, size: int, labels: list[int], cluster_size: dict[int, int]) -> None:
    home = labels[v]
    cluster_size[home] -= size
    if cluster_size[home] == 0:
        del cluster_size[home]
    cluster_size[target] = cluster_size.get(target, 0) + size
    labels[v] = target


def _local_move(adj: _Rows, sizes: list[int], labels: list[int], resolution: float,
                rng: random.Random, settled: bool = False) -> bool:
    """Single-node moves until a full pass makes none; returns True when any node moved.

    Each visit takes one target drawn at random among the strictly improving
    ones (not the single best), so restarts explore different basins; the
    fixpoint criterion is the same either way: no single move improves Q.
    A visit that finds no move stamps its node with the current epoch and
    every move starts a new one, so a node stamped in this epoch is skipped:
    its visit would find no move again and draw nothing. ``settled`` says
    the labels are already a fixpoint, so every node starts stamped.
    """
    cluster_size = _cluster_sizes(sizes, labels)
    next_label = max(labels) + 1
    epoch = 0
    stamp = [epoch if settled else -1] * len(adj)
    for _ in range(_MAX_ROUNDS):
        round_start = epoch
        order = list(range(len(adj)))
        rng.shuffle(order)
        for v in order:
            if stamp[v] == epoch:
                continue
            home, size = labels[v], sizes[v]
            # written out here, in _chain_pass and in _refine, in plain loops: per-visit comprehensions
            # and a shared per-visit helper each made clustering slower on Python 3.11
            connection: dict[int, float] = {}
            for u, weight in adj[v]:
                label = labels[u]
                connection[label] = connection.get(label, 0.0) + weight
            # worth in cluster C: conn(v, C) - resolution * size_v * size_C, size_C without v
            penalty = resolution * size
            stay = connection.pop(home, 0.0) - penalty * (cluster_size[home] - size)
            improving = []
            for label, conn in connection.items():
                if conn - penalty * cluster_size[label] > stay:
                    improving.append(label)
            if 0.0 > stay:  # a fresh singleton cluster contributes nothing
                improving.append(next_label)
            if not improving:
                stamp[v] = epoch
                continue
            if len(improving) == 1:
                target = improving[0]
            else:
                improving.sort()  # the draw is over ascending labels, next_label the highest
                target = rng.choice(improving)
            _move(v, target, size, labels, cluster_size)
            if target == next_label:
                next_label += 1
            epoch += 1
        if epoch == round_start:
            break
    return epoch > 0


def _aggregate(adj: _Rows, sizes: list[int], labels: list[int], k: int) -> tuple[_Rows, list[int]]:
    """Collapse clusters 0..k-1 into nodes 0..k-1; inter-cluster weights are summed."""
    new_sizes = [0] * k
    for v, label in enumerate(labels):
        new_sizes[label] += sizes[v]
    rows: list[dict[int, float]] = [{} for _ in range(k)]
    for v, row in enumerate(adj):
        a = labels[v]
        for u, weight in row:
            if u <= v:
                continue
            b = labels[u]
            if a == b:
                continue  # internal weight never affects a whole-node move
            rows[a][b] = rows[a].get(b, 0.0) + weight
            rows[b][a] = rows[b].get(a, 0.0) + weight
    return [sorted(row.items()) for row in rows], new_sizes


def _refine(adj: _Rows, sizes: list[int], labels: list[int],
            resolution: float, rng: random.Random) -> tuple[list[int], list[int]]:
    """Split each cluster S into well-connected subclusters, greedy Leiden style.

    Leiden's refinement (Traag, Waltman & van Eck 2019, Algorithm A.2) in its
    greedy limit: starting from singletons, the nodes of S are visited once,
    in random order. A node that is still a singleton and is well connected,
    E(v, S - v) >= resolution * size_v * (size_S - size_v), joins the
    well-connected subcluster with the largest positive worth, ties going to
    the lowest label. The only draw is one shuffle per cluster of two or more
    nodes. S's edges are read from the full rows, filtered by label.

    Returns the refined labels, numbered 0..K-1 in order of first appearance,
    plus each refined label's parent label, so the aggregate network can
    start from the unrefined partition.
    """
    groups: dict[int, list[int]] = {}
    for v, label in enumerate(labels):
        groups.setdefault(label, []).append(v)
    block = list(range(len(adj)))  # a node's subcluster, named by one of its nodes
    block_size = list(sizes)
    external = [0.0] * len(adj)  # per subcluster C: E(C, S - C)
    refined = [0] * len(adj)
    parent: list[int] = []
    for cluster_label in sorted(groups):
        members = groups[cluster_label]
        if len(members) > 1:
            total = 0
            for v in members:
                total += sizes[v]
                inside = 0.0
                for u, weight in adj[v]:
                    if labels[u] == cluster_label:
                        inside += weight
                external[v] = inside
            order = list(members)
            rng.shuffle(order)
            for v in order:
                size = sizes[v]
                if block_size[block[v]] != size:
                    continue  # no longer a singleton
                penalty = resolution * size
                if external[v] < penalty * (total - size):
                    continue  # not well connected to S
                connection: dict[int, float] = {}
                for u, weight in adj[v]:
                    if labels[u] == cluster_label:
                        label = block[u]
                        connection[label] = connection.get(label, 0.0) + weight
                # worth in subcluster C: conn(v, C) - resolution * size_v * size_C; staying is worth 0
                best_label, best_value = v, 0.0
                for label, conn in connection.items():
                    label_size = block_size[label]
                    if external[label] < resolution * label_size * (total - label_size):
                        continue  # C is not well connected to S
                    value = conn - penalty * label_size
                    if value > best_value or (value == best_value and value > 0.0 and label < best_label):
                        best_label, best_value = label, value
                if best_label != v:
                    external[best_label] += external[v] - 2.0 * connection[best_label]
                    block_size[best_label] += size
                    block[v] = best_label
        block_ids: dict[int, int] = {}
        for v in members:
            if block[v] not in block_ids:
                block_ids[block[v]] = len(parent)
                parent.append(cluster_label)
            refined[v] = block_ids[block[v]]
    return refined, parent


def _slm(adj: _Rows, sizes: list[int], resolution: float, rng: random.Random,
         init_labels: list[int], settled: bool = False) -> tuple[list[int], bool]:
    """One SLM cycle from ``init_labels``; also returns True when they were a local-move fixpoint.

    ``settled`` passes that knowledge back in, so the first local move only shuffles.
    """
    labels = list(init_labels)
    settled = not _local_move(adj, sizes, labels, resolution, rng, settled)
    if len(set(labels)) == len(adj):
        return labels, settled
    refined, parent = _refine(adj, sizes, labels, resolution, rng)
    if len(parent) == len(adj):
        # refinement split everything back to singletons: the aggregate would
        # be this graph again, and its local move already ran to a fixpoint
        return labels, settled
    agg_adj, agg_sizes = _aggregate(adj, sizes, refined, len(parent))
    agg_labels, _ = _slm(agg_adj, agg_sizes, resolution, rng, parent)
    return [agg_labels[label] for label in refined], settled


def _chain_pass(adj: _Rows, sizes: list[int], labels: list[int], resolution: float, rng: random.Random) -> bool:
    """Variable-depth pass: escape traps no single improving move can leave.

    Every node, in random order, makes its best move away from its cluster
    even when that loses quality; the best prefix of the move chain is kept
    and the rest reverted. Returns True when the kept prefix improved Q, so
    callers retry with fresh orders until a pass yields nothing.
    """
    cluster_size = _cluster_sizes(sizes, labels)
    next_label = max(labels) + 1
    order = list(range(len(adj)))
    rng.shuffle(order)
    chain: list[tuple[int, int]] = []
    cum, best_cum, best_len = 0.0, 0.0, 0
    for v in order:
        home, size = labels[v], sizes[v]
        connection: dict[int, float] = {}
        for u, weight in adj[v]:
            label = labels[u]
            connection[label] = connection.get(label, 0.0) + weight
        # worth in cluster C: conn(v, C) - resolution * size_v * size_C, size_C without v
        penalty = resolution * size
        stay = connection.pop(home, 0.0) - penalty * (cluster_size[home] - size)
        # a fresh singleton is the fallback; ties keep it, then the lowest label
        best_label, best_value = next_label, 0.0
        for label, conn in connection.items():
            value = conn - penalty * cluster_size[label]
            if value > best_value or (value == best_value and value > 0.0 and label < best_label):
                best_label, best_value = label, value
        cum += best_value - stay
        _move(v, best_label, size, labels, cluster_size)
        if best_label == next_label:
            next_label += 1
        chain.append((v, home))
        if cum > best_cum + 1e-12:
            best_cum, best_len = cum, len(chain)
    for v, old in reversed(chain[best_len:]):
        _move(v, old, sizes[v], labels, cluster_size)
    return best_cum > 1e-12


def _canonical(labels: list[int]) -> tuple[int, ...]:
    """Relabel clusters 1..K in order of first appearance."""
    mapping: dict[int, int] = {}
    out = []
    for label in labels:
        if label not in mapping:
            mapping[label] = len(mapping) + 1
        out.append(mapping[label])
    return tuple(out)


def _restart(sim: SimilarityMatrix, adj: _Rows, resolution: float, seed: int, restart: int) -> tuple[list[int], float]:
    """One seeded run: SLM cycles and chain passes until ``_CHAIN_PATIENCE`` in a row yield nothing."""
    n = len(adj)
    rng = random.Random(f"{seed}:{restart}")
    labels = list(range(n))
    current = quality(sim, labels, resolution)
    failures = 0
    settled = False  # labels are a fixpoint of single-node moves
    for _ in range(_MAX_ROUNDS):  # iterate the full cycle while Q improves
        candidate, settled = _slm(adj, [1] * n, resolution, rng, labels, settled)
        # a cycle that moves nothing returns its input labels, whose Q is known
        candidate_quality = current if candidate == labels else quality(sim, candidate, resolution)
        if candidate_quality > current:
            labels, current, settled = candidate, candidate_quality, False
            failures = 0
            continue
        escaped = list(labels)
        if _chain_pass(adj, [1] * n, escaped, resolution, rng):
            escaped_quality = quality(sim, escaped, resolution)
            if escaped_quality > current:
                labels, current, settled = escaped, escaped_quality, False
                failures = 0
                continue
        failures += 1
        if failures >= _CHAIN_PATIENCE:
            break
    return labels, current


def cluster(sim: SimilarityMatrix, resolution: float = 1.0, seed: int = 42, restarts: int = 10) -> Clustering:
    """Maximize Q by smart local moving; best of ``restarts`` seeded runs."""
    n = len(sim.terms)
    if n == 0:
        raise ValueError("cannot cluster an empty similarity matrix")
    if not 0 < resolution < math.inf:  # also refuses nan, at which no restart's quality would win
        raise ConfigError(f"resolution must be finite and > 0, got {resolution}")
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    adj: _Rows = [[] for _ in range(n)]
    for (i, j), s in sim.strengths.items():  # pair order keeps every row ascending
        adj[i].append((j, s))
        adj[j].append((i, s))

    def run(share: range) -> list[tuple[list[int], float]]:
        return [_restart(sim, adj, resolution, seed, restart) for restart in share]

    workers = min(restarts, fork.cpus())
    if workers > 1 and len(sim.strengths) >= _PARALLEL_MIN_EDGES:
        results = fork.forked(run, restarts, workers)
    else:
        results = run(range(restarts))
    best_labels: list[int] | None = None
    best_quality = float("-inf")
    for labels, current in results:  # restart order, so ties go to the earliest restart
        if current > best_quality:
            best_labels, best_quality = labels, current
    assert best_labels is not None
    return Clustering(_canonical(best_labels), best_quality)
