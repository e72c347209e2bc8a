"""Similarity-weighted 2D layout under a unit mean-distance constraint.

Positions minimize V(x) = sum over pairs of s_ij * ||x_i - x_j||^2 subject
to a mean pairwise Euclidean distance of exactly 1, so strongly related
terms sit close together while the constraint stops the trivial collapse.
Optimization is the majorization of VOS mapping (van Eck, Waltman, Dekker &
van den Berg 2010, JASIST 61(12)): at the iterate y, the step L^+ B(y) y
minimizes a quadratic-over-linear bound on V over the squared mean distance
and is projected back onto the constraint; an over-relaxed step is tried
first, and a step is kept only if it lowers V. Disconnected inputs are laid
out one component at a time and arranged on a grid before the final
projection.

Memory bounds the map size. V is summed over the edge list, the B weights
overwrite the accepted distance matrix, and the Laplacian is freed once
inverted. An iteration then holds L^+, the plain step's distances, and the
over-relaxed point's distances with one temporary array while they are built.
The peak is about 4.3 n x n float arrays, the inversion's workspace included.

numpy is imported inside the functions that use it, not at module level, so
importing this module (and ``citemap.cli``, which imports every module) loads
only the standard library. ``layout_worker`` forks a process that imports
numpy at once, while this process does other work, and ``layout`` then has it
lay out each map. The n x n arrays then live in the worker, which sets
``OPENBLAS_NUM_THREADS=1``: where numpy uses OpenBLAS, its second thread
would spin on the CPU this process needs, and a threaded inverse changes the
map's last bits with the thread count. Other BLAS libraries ignore the
setting. Without a worker, the first layout in a process imports numpy and
runs on that process's BLAS threads.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import fork
from .errors import ConfigError, ConsistencyError
from .network import SimilarityMatrix

if TYPE_CHECKING:
    import numpy as np

_COMPONENT_GAP = 2.0  # spacing between component bounding boxes, pre-projection
MAX_LAYOUT_TERMS = 5000  # the n x n arrays of a map this size peak at about 0.9 GB


@dataclass(frozen=True)
class MapLayout:
    """2D positions, centered at the origin, mean pairwise distance 1."""

    positions: tuple[tuple[float, float], ...]
    objective: float
    converged: bool
    iterations_used: int


def layout_objective(sim: SimilarityMatrix, positions: Sequence[Sequence[float]]) -> float:
    """V(x) = sum of s_ij * squared distance over co-occurring pairs."""
    if len(positions) != len(sim.terms):
        raise ConsistencyError(f"{len(positions)} positions for {len(sim.terms)} terms")
    value = 0.0
    for (i, j), s in sim.strengths.items():
        dx = positions[i][0] - positions[j][0]
        dy = positions[i][1] - positions[j][1]
        value += s * (dx * dx + dy * dy)
    return value


def _distances(x: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distance matrix of 2D points.

    sqrt(dx^2 + dy^2) built in place; hypot's overflow guard buys nothing on
    projected coordinates of order 1.
    """
    import numpy as np

    dist = np.subtract.outer(x[:, 0], x[:, 0])
    dist *= dist
    dy = np.subtract.outer(x[:, 1], x[:, 1])
    dy *= dy
    dist += dy
    return np.sqrt(dist, out=dist)


def _project(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center at the origin and rescale to mean pairwise distance 1.

    Returns the projected points and their pairwise distance matrix.
    """
    import numpy as np

    n = len(x)
    x = x - x.mean(axis=0)
    dist = _distances(x)
    if not dist.any():
        # all points coincident: spread on a tiny circle, then normalize
        angles = 2.0 * math.pi * np.arange(n) / n
        x = x + 1e-6 * np.column_stack([np.cos(angles), np.sin(angles)])
        x = x - x.mean(axis=0)
        dist = _distances(x)
    d = float(dist.sum()) / (n * (n - 1))
    dist /= d
    return x / d, dist


def _edge_objective(y: np.ndarray, ei: np.ndarray, ej: np.ndarray, es: np.ndarray) -> float:
    """V(y) summed over the edges (ei[k], ej[k]) of strength es[k]."""
    diff = y[ei] - y[ej]
    diff *= diff
    return float((es * diff.sum(axis=1)).sum())


def _optimize(sim: SimilarityMatrix, seed: int, max_iter: int, tol: float,
              trace: list[float] | None) -> tuple[np.ndarray, float, bool, int]:
    import numpy as np

    n = len(sim.terms)
    ei, ej = np.array(list(sim.strengths), dtype=np.intp).reshape(-1, 2).T
    es = np.array(list(sim.strengths.values()))
    laplacian = np.zeros((n, n))
    for (i, j), s in sim.strengths.items():
        laplacian[i, j] -= s
        laplacian[j, i] -= s
        laplacian[i, i] += s
        laplacian[j, j] += s
    # exact pseudo-inverse for one connected component, whose Laplacian's
    # null space is the constant vector
    laplacian += 1.0 / n
    laplacian_pinv = np.linalg.inv(laplacian)
    del laplacian
    laplacian_pinv -= 1.0 / n
    rng = np.random.default_rng(seed)
    x, dist = _project(rng.uniform(-0.5, 0.5, size=(n, 2)))

    value = _edge_objective(x, ei, ej, es)
    if trace is not None:
        trace.append(value)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # B(x) x with b_ij = -1/d_ij off the diagonal and zero row sums. The
        # weights overwrite the accepted distances: if no candidate below
        # replaces them, V did not fall and the loop stops (tol >= 0).
        weights = np.divide(1.0, dist, out=dist, where=dist > 0)
        target = weights.sum(axis=1)[:, None] * x - weights @ x
        del weights, dist  # no n x n array but L^+ alive into the projections
        step, step_dist = _project(laplacian_pinv @ target)
        previous = value
        # the over-relaxed point first, then the plain step, else stay put
        for candidate, candidate_dist in (_project(2.0 * step - x), (step, step_dist)):
            candidate_value = _edge_objective(candidate, ei, ej, es)
            if candidate_value < value:
                x, dist, value = candidate, candidate_dist, candidate_value
        del step, step_dist, candidate, candidate_dist  # only the accepted one lives on
        if trace is not None:
            trace.append(value)
        if previous - value <= tol * max(abs(value), 1e-30):
            converged = True
            break
    return x, value, converged, iterations


def _components(sim: SimilarityMatrix) -> list[list[int]]:
    n = len(sim.terms)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, j in sim.strengths:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack, members = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            members.append(v)
            for u in adjacency[v]:  # ascending: the pairs come in pair order
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        components.append(sorted(members))
    return components


def layout(
    sim: SimilarityMatrix,
    seed: int = 42,
    max_iter: int = 10_000,
    tol: float = 1e-8,
    trace: list[float] | None = None,
    worker: fork.ForkedCall | None = None,
) -> MapLayout:
    """Compute the 2D map for a similarity matrix.

    Stops when the relative objective decrease of an iteration is at most
    ``tol``, and then reports ``converged``, or after ``max_iter`` iterations.
    A single term sits at the origin with a vacuous constraint. ``trace``,
    when given, collects the objective value after every iteration (test
    hook); for disconnected inputs only the final assembled objective is
    traced. Raises ConfigError above ``MAX_LAYOUT_TERMS`` terms.

    ``worker`` is a ``layout_worker()``, called once per map. Unless
    ``trace`` is given, the map is computed there, and its error raised
    here; a worker that died raises ChildProcessError.
    """
    if worker is not None and trace is None:
        laid_out = worker(sim, seed, max_iter, tol)
        if isinstance(laid_out, Exception):
            raise laid_out
        return laid_out
    return _lay_out(sim, seed, max_iter, tol, trace)


def _prepare_worker() -> None:
    """A layout worker's start, before its matrix arrives: one BLAS thread, and numpy loaded."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads OpenBLAS
    import numpy.random  # noqa: F401  numpy itself, and the generator every layout seeds


def _lay_out_or_error(sim: SimilarityMatrix, seed: int, max_iter: int, tol: float) -> MapLayout | Exception:
    """A layout worker's call: the map, or the error, which ``layout`` raises in the process that called it."""
    try:
        return _lay_out(sim, seed, max_iter, tol, None)
    except Exception as exc:
        return exc


def layout_worker() -> fork.ForkedCall | None:
    """A process forked to import numpy beside this one's work and lay out maps, or None where it would not pay.

    Pass it to ``layout`` as ``worker`` for each map, and close it on every
    path. None on one CPU; when numpy is already imported, as in a test
    process or a library caller's, since a child would then neither save the
    import nor choose its BLAS thread count; and when the fork fails.
    ``layout`` then computes the map in this process.
    """
    if fork.cpus() < 2 or "numpy" in sys.modules:
        return None
    try:
        return fork.ForkedCall(_lay_out_or_error, _prepare_worker)
    except OSError:
        return None


def _lay_out(sim: SimilarityMatrix, seed: int, max_iter: int, tol: float, trace: list[float] | None) -> MapLayout:
    """``layout`` computed in this process."""
    n = len(sim.terms)
    if n < 1:
        raise ValueError("layout needs at least one term")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if not tol >= 0:
        raise ConfigError(f"tol must be >= 0, got {tol}")
    if n == 1:
        return MapLayout(((0.0, 0.0),), 0.0, True, 0)
    if n > MAX_LAYOUT_TERMS:
        raise ConfigError(f"cannot lay out {n} terms, the limit is {MAX_LAYOUT_TERMS}; "
                          "raise --min-occurrences to keep fewer terms")

    components = _components(sim)
    if len(components) == 1:
        x, value, converged, iterations = _optimize(sim, seed, max_iter, tol, trace)
        return MapLayout(tuple((float(px), float(py)) for px, py in x), value, converged, iterations)

    import numpy as np

    # lay out each component independently, then place on a grid
    placed = np.zeros((n, 2))
    extents = []
    sub_results = []
    for members in components:
        if len(members) == 1:
            sub = (np.zeros((1, 2)), 0.0, True, 0)
        else:
            local = {member: k for k, member in enumerate(members)}
            local_sim = SimilarityMatrix(
                tuple(sim.terms[member] for member in members),
                {(local[i], local[j]): s for (i, j), s in sim.strengths.items() if i in local and j in local},
            )
            sub = _optimize(local_sim, seed, max_iter, tol, None)
        sub_results.append((members, sub))
        coords = sub[0]
        width = float(coords[:, 0].max() - coords[:, 0].min()) if len(members) > 1 else 0.0
        height = float(coords[:, 1].max() - coords[:, 1].min()) if len(members) > 1 else 0.0
        extents.append(max(width, height))
    pitch = max(extents) + _COMPONENT_GAP
    columns = math.ceil(math.sqrt(len(components)))
    for k, (members, (coords, _, _, _)) in enumerate(sub_results):
        offset = np.array([(k % columns) * pitch, -(k // columns) * pitch])
        for row, member in enumerate(members):
            placed[member] = coords[row] + offset
    placed, _ = _project(placed)
    value = float(layout_objective(sim, placed))  # np.float64 over an array; a connected map's V is a float
    if trace is not None:
        trace.append(value)
    converged = all(sub[2] for _, sub in sub_results)
    iterations = max(sub[3] for _, sub in sub_results)
    return MapLayout(tuple((float(px), float(py)) for px, py in placed), value, converged, iterations)
