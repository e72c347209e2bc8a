"""Resolution-parameterized clustering by iterated local moving.

The quality of a partition is Q = sum over same-cluster pairs i<j of
(s_ij - resolution), where s_ij is 0 for non-co-occurring pairs. Larger
resolutions penalize big clusters and yield more of them.

Optimization is smart local moving: single-node moves run until no move
improves Q; each cluster's induced subnetwork is then re-clustered from
singletons, so a bad merge can split again; the refined partition is
collapsed into an aggregate network that starts from the unrefined clusters
and is optimized recursively. Once that cycle stalls, variable-depth chain
passes (forced best moves with the best prefix kept) try to escape traps
that no single improving move can leave. The best of ``restarts`` seeded
runs wins, ties going to the earliest restart, so results are fully
deterministic for a fixed (seed, restarts).

Each restart draws only from its own seeded generator, so the restarts run
side by side in forked worker processes, one per CPU of this process's
affinity mask, and are merged in restart order. Networks below
``_PARALLEL_MIN_EDGES`` edges, and any call on one CPU, run the restarts in
this process. The result is the same bit for bit for any CPU count.
"""

from __future__ import annotations

import os
import pickle
import random
from dataclasses import dataclass
from typing import BinaryIO, Callable, NoReturn, Sequence

from .errors import ConfigError, ConsistencyError
from .network import SimilarityMatrix

_MAX_ROUNDS = 1000  # safety stop; local moving terminates long before this
_CHAIN_PATIENCE = 8  # failed variable-depth attempts per restart before giving up
# Forking, piping and reaping the workers costs 4-9 ms with a 50-80 MB parent
# (2-CPU VM), which ten restarts earn back from about 10-30 edges up; below
# this, and so on every graph of <= 8 nodes, restarts run in this process.
_PARALLEL_MIN_EDGES = 64


@dataclass(frozen=True)
class Clustering:
    """Cluster ids are contiguous and 1-based; one entry per term."""

    assignment: tuple[int, ...]
    resolution: float
    seed: int
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
    for (i, j), s in sorted(sim.strengths.items()):
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


def _gains(row: list[tuple[int, float]], size: int, home: int, labels: list[int],
           cluster_size: dict[int, int], resolution: float) -> tuple[float, dict[int, float]]:
    """Worth of a node in each adjacent cluster C: conn(v, C) - resolution * size_v * size_C.

    size_C leaves the node itself out. Returns the worth of staying in
    ``home`` and label -> worth for every other adjacent cluster, in
    ascending label order.
    """
    connection: dict[int, float] = {home: 0.0}
    for u, weight in row:
        label = labels[u]
        connection[label] = connection.get(label, 0.0) + weight
    penalty = resolution * size
    worth: dict[int, float] = {}
    # plain loops here and in _local_move: per-visit comprehensions made clustering ~13% slower on Python 3.11
    for label in sorted(connection):
        worth[label] = connection[label] - penalty * (cluster_size[label] - (size if label == home else 0))
    return worth.pop(home), worth


def _move(v: int, target: int, size: int, labels: list[int], cluster_size: dict[int, int]) -> None:
    home = labels[v]
    cluster_size[home] -= size
    if cluster_size[home] == 0:
        del cluster_size[home]
    cluster_size[target] = cluster_size.get(target, 0) + size
    labels[v] = target


def _local_move(adj: _Rows, sizes: list[int], labels: list[int], resolution: float, rng: random.Random) -> None:
    """Single-node moves until a full pass makes none.

    Each visit takes one target drawn at random among the strictly improving
    ones (not the single best), so restarts explore different basins; the
    fixpoint criterion is the same either way: no single move improves Q.
    """
    cluster_size = _cluster_sizes(sizes, labels)
    next_label = max(labels) + 1
    for _ in range(_MAX_ROUNDS):
        improved = False
        order = list(range(len(adj)))
        rng.shuffle(order)
        for v in order:
            stay, gains = _gains(adj[v], sizes[v], labels[v], labels, cluster_size, resolution)
            improving = []
            for label, value in gains.items():
                if value > stay:
                    improving.append(label)
            if 0.0 > stay:  # a fresh singleton cluster contributes nothing
                improving.append(next_label)
            if not improving:
                continue
            target = improving[0] if len(improving) == 1 else rng.choice(improving)
            _move(v, target, sizes[v], labels, cluster_size)
            if target == next_label:
                next_label += 1
            improved = True
        if not improved:
            break


def _aggregate(adj: _Rows, sizes: list[int], labels: list[int]) -> tuple[_Rows, list[int], dict[int, int]]:
    """Collapse clusters into nodes; inter-cluster weights are summed."""
    remap = {label: index for index, label in enumerate(sorted(set(labels)))}
    new_sizes = [0] * len(remap)
    for v, label in enumerate(labels):
        new_sizes[remap[label]] += sizes[v]
    rows: list[dict[int, float]] = [{} for _ in remap]
    for v, row in enumerate(adj):
        a = remap[labels[v]]
        for u, weight in row:
            if u <= v:
                continue
            b = remap[labels[u]]
            if a == b:
                continue  # internal weight never affects a whole-node move
            rows[a][b] = rows[a].get(b, 0.0) + weight
            rows[b][a] = rows[b].get(a, 0.0) + weight
    return [sorted(row.items()) for row in rows], new_sizes, remap


def _refine(adj: _Rows, sizes: list[int], labels: list[int],
            resolution: float, rng: random.Random) -> tuple[list[int], dict[int, int]]:
    """Re-cluster each cluster's induced subnetwork from singletons.

    Returns the refined labels plus refined-label -> parent-label, so the
    aggregate network can start from the unrefined partition.
    """
    groups: dict[int, list[int]] = {}
    for v, label in enumerate(labels):
        groups.setdefault(label, []).append(v)
    refined = [0] * len(adj)
    parent: dict[int, int] = {}
    for cluster_label in sorted(groups):
        members = groups[cluster_label]
        local = {v: k for k, v in enumerate(members)}
        sub_adj = [[(local[u], weight) for u, weight in adj[v] if u in local] for v in members]
        sub_labels = list(range(len(members)))
        _local_move(sub_adj, [sizes[v] for v in members], sub_labels, resolution, rng)
        block_ids: dict[int, int] = {}
        for v in members:
            block = sub_labels[local[v]]
            if block not in block_ids:
                block_ids[block] = len(parent)
                parent[block_ids[block]] = cluster_label
            refined[v] = block_ids[block]
    return refined, parent


def _slm(adj: _Rows, sizes: list[int], resolution: float,
         rng: random.Random, init_labels: list[int]) -> list[int]:
    labels = list(init_labels)
    _local_move(adj, sizes, labels, resolution, rng)
    if len(set(labels)) == len(adj):
        return labels
    refined, parent = _refine(adj, sizes, labels, resolution, rng)
    agg_adj, agg_sizes, remap = _aggregate(adj, sizes, refined)
    if len(agg_adj) == len(adj):
        # refinement split everything back to singletons: the aggregate is
        # this graph again and its local move already ran to a fixpoint
        return labels
    agg_init = [0] * len(agg_adj)
    for refined_label, agg_node in remap.items():
        agg_init[agg_node] = parent[refined_label]
    agg_labels = _slm(agg_adj, agg_sizes, resolution, rng, agg_init)
    return [agg_labels[remap[refined[v]]] for v in range(len(adj))]


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
        home = labels[v]
        stay, gains = _gains(adj[v], sizes[v], home, labels, cluster_size, resolution)
        # a fresh singleton is the fallback; ties keep the earliest
        best_label, best_value = max([(next_label, 0.0), *gains.items()], key=lambda gain: gain[1])
        cum += best_value - stay
        _move(v, best_label, sizes[v], labels, cluster_size)
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
    for _ in range(_MAX_ROUNDS):  # iterate the full cycle while Q improves
        candidate = _slm(adj, [1] * n, resolution, rng, labels)
        candidate_quality = quality(sim, candidate, resolution)
        if candidate_quality > current:
            labels, current = candidate, candidate_quality
            failures = 0
            continue
        escaped = list(labels)
        if _chain_pass(adj, [1] * n, escaped, resolution, rng):
            escaped_quality = quality(sim, escaped, resolution)
            if escaped_quality > current:
                labels, current = escaped, escaped_quality
                failures = 0
                continue
        failures += 1
        if failures >= _CHAIN_PATIENCE:
            break
    return labels, current


_Run = Callable[[range], list[tuple[list[int], float]]]


def _worker(run: _Run, share: range, read_fd: int, write_fd: int) -> NoReturn:
    """Forked child: pickle ``run(share)`` into the pipe and exit.

    ``os._exit`` skips the parent's stack, atexit handlers and buffered
    output, which must run once, in the parent.
    """
    code = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(run(share), pipe)
        code = 0
    except Exception:  # an interrupt or exit ends the child quietly; the parent reports it
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)


def _forked(run: _Run, restarts: int, workers: int) -> list[tuple[list[int], float]]:
    """``run(range(restarts))`` with restart r run by worker r % workers; worker 0 is this process."""
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe, until reaped
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _worker(run, range(worker, restarts, workers), read_fd, write_fd)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        shares = [run(range(0, restarts, workers))]
        for pid, pipe in list(children.items()):
            payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            pipe.close()
            del children[pid]
            if status != 0:
                raise ChildProcessError(
                    f"clustering worker exited with code {os.waitstatus_to_exitcode(status)}")
            shares.append(pickle.loads(payload))
    finally:
        if children:  # this process failed first: stop the workers rather than wait for them
            import signal
            for pid, pipe in children.items():
                os.kill(pid, signal.SIGKILL)
                pipe.close()
                os.waitpid(pid, 0)
    return [shares[r % workers][r // workers] for r in range(restarts)]


def cluster(sim: SimilarityMatrix, resolution: float = 1.0, seed: int = 42, restarts: int = 10) -> Clustering:
    """Maximize Q by smart local moving; best of ``restarts`` seeded runs."""
    n = len(sim.terms)
    if n == 0:
        raise ValueError("cannot cluster an empty similarity matrix")
    if resolution <= 0:
        raise ConfigError(f"resolution must be > 0, got {resolution}")
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    adj: _Rows = [[] for _ in range(n)]
    for (i, j), s in sorted(sim.strengths.items()):  # pair order keeps every row ascending
        adj[i].append((j, s))
        adj[j].append((i, s))

    def run(share: range) -> list[tuple[list[int], float]]:
        return [_restart(sim, adj, resolution, seed, restart) for restart in share]

    # no affinity mask (macOS, Windows): no fork-safe way to run restarts side by side
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(restarts, cpus)
    if workers > 1 and len(sim.strengths) >= _PARALLEL_MIN_EDGES:
        results = _forked(run, restarts, workers)
    else:
        results = run(range(restarts))
    best_labels: list[int] | None = None
    best_quality = float("-inf")
    for labels, current in results:  # restart order, so ties go to the earliest restart
        if current > best_quality:
            best_labels, best_quality = labels, current
    assert best_labels is not None
    return Clustering(_canonical(best_labels), resolution, seed, best_quality)
