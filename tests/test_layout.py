"""Layout: constraint handling, objective behavior, geometric contracts."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from citemap.errors import ConfigError, ConsistencyError
from citemap.layout import MapLayout, _distances, _edge_objective, layout, layout_objective

from conftest import sim


def distance(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def mean_pairwise(positions) -> float:
    pairs = list(itertools.combinations(range(len(positions)), 2))
    return sum(distance(positions[i], positions[j]) for i, j in pairs) / len(pairs)


def centroid(positions):
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    return (sum(xs) / len(xs), sum(ys) / len(ys))


EQUILATERAL = sim(3, {(0, 1): 1.5, (0, 2): 1.5, (1, 2): 1.5})


class TestLayoutObjective:
    def test_coincident_points_score_zero(self):
        s = sim(3, {(0, 1): 1.0, (1, 2): 2.0})
        assert layout_objective(s, [(0.0, 0.0)] * 3) == 0.0

    def test_two_points_weighted(self):
        s = sim(2, {(0, 1): 2.0})
        assert layout_objective(s, [(0.0, 0.0), (1.0, 0.0)]) == pytest.approx(2.0)

    def test_matches_brute_force_sum(self):
        rng = random.Random(4)
        strengths = {(i, j): rng.uniform(0.1, 2.0) for i, j in itertools.combinations(range(4), 2)}
        positions = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        expected = sum(
            s * ((positions[i][0] - positions[j][0]) ** 2 + (positions[i][1] - positions[j][1]) ** 2)
            for (i, j), s in strengths.items()
        )
        assert layout_objective(sim(4, strengths), positions) == pytest.approx(expected, rel=1e-12)

    def test_missing_position_rejected(self):
        with pytest.raises(ConsistencyError):
            layout_objective(sim(3, {(0, 1): 1.0}), [(0.0, 0.0), (1.0, 0.0)])

    def test_invariant_under_rotation_and_translation(self):
        rng = random.Random(6)
        strengths = {(i, j): rng.uniform(0.1, 2.0) for i, j in itertools.combinations(range(5), 2)}
        s = sim(5, strengths)
        positions = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
        theta = 1.234
        rotated = [
            (
                math.cos(theta) * x - math.sin(theta) * y + 5.0,
                math.sin(theta) * x + math.cos(theta) * y - 2.5,
            )
            for x, y in positions
        ]
        assert abs(layout_objective(s, positions) - layout_objective(s, rotated)) < 1e-9


class TestLayout:
    def test_single_term_at_origin(self):
        result = layout(sim(1, {}), seed=42)
        assert result.positions == ((0.0, 0.0),)
        assert result.objective == 0.0 and result.converged

    def test_two_points_at_unit_distance(self):
        result = layout(sim(2, {(0, 1): 1.0}), seed=42)
        assert abs(distance(result.positions[0], result.positions[1]) - 1.0) < 1e-9

    def test_equilateral_triangle(self):
        result = layout(EQUILATERAL, seed=42, tol=1e-13)
        d = [distance(result.positions[a], result.positions[b]) for a, b in ((0, 1), (0, 2), (1, 2))]
        assert max(d) - min(d) < 1e-6
        assert abs(sum(d) / 3 - 1.0) < 1e-9  # constraint fixes the mean side

    def test_equilateral_beats_perturbations(self):
        result = layout(EQUILATERAL, seed=7, tol=1e-13)
        base = layout_objective(EQUILATERAL, result.positions)
        rng = random.Random(0)
        for _ in range(25):
            jittered = np.array(result.positions) + np.array(
                [[rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)] for _ in range(3)]
            )
            jittered -= jittered.mean(axis=0)
            jittered /= mean_pairwise([tuple(p) for p in jittered])
            assert layout_objective(EQUILATERAL, [tuple(p) for p in jittered]) >= base - 1e-9

    def test_path_geometry(self):
        s = sim(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 0.01})
        for seed in range(100):
            result = layout(s, seed=seed)
            d_ab = distance(result.positions[0], result.positions[1])
            d_bc = distance(result.positions[1], result.positions[2])
            d_ac = distance(result.positions[0], result.positions[2])
            assert d_ab < d_ac and d_bc < d_ac
            assert abs(d_ab - d_bc) < 1e-3

    def test_constraint_residual_and_centroid(self):
        rng = random.Random(12)
        strengths = {}
        for i, j in itertools.combinations(range(9), 2):
            if rng.random() < 0.5:
                strengths[(i, j)] = rng.uniform(0.2, 2.0)
        result = layout(sim(9, strengths), seed=3)
        assert abs(mean_pairwise(result.positions) - 1.0) < 1e-9
        cx, cy = centroid(result.positions)
        assert abs(cx) < 1e-9 and abs(cy) < 1e-9

    def test_objective_sequence_non_increasing(self):
        rng = random.Random(2)
        strengths = {(i, i + 1): rng.uniform(0.2, 2.0) for i in range(9)}  # spanning path
        for i, j in itertools.combinations(range(10), 2):
            if (i, j) not in strengths and rng.random() < 0.4:
                strengths[(i, j)] = rng.uniform(0.2, 2.0)
        trace: list[float] = []
        layout(sim(10, strengths), seed=5, trace=trace)
        assert len(trace) > 2
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))

    def test_deterministic_bit_for_bit(self):
        rng = random.Random(17)
        strengths = {}
        for i, j in itertools.combinations(range(8), 2):
            if rng.random() < 0.6:
                strengths[(i, j)] = rng.uniform(0.2, 2.0)
        s = sim(8, strengths)
        first = layout(s, seed=99)
        second = layout(s, seed=99)
        assert first.positions == second.positions
        assert first.objective == second.objective

    @pytest.mark.parametrize("tol", [-1e-8, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        # the loop stops on the first iteration that keeps no candidate only when tol >= 0
        with pytest.raises(ConfigError, match="tol must be >= 0"):
            layout(EQUILATERAL, seed=1, tol=tol)

    def test_non_finite_similarity_rejected(self):
        with pytest.raises(ValueError):
            layout(sim(2, {(0, 1): float("nan")}), seed=1)

    def test_disconnected_components_gridded(self):
        # a pair plus a triangle, no edges between them
        s = sim(5, {(0, 1): 1.0, (2, 3): 1.0, (2, 4): 1.0, (3, 4): 1.0})
        result = layout(s, seed=42)
        assert abs(mean_pairwise(result.positions) - 1.0) < 1e-9
        cx, cy = centroid(result.positions)
        assert abs(cx) < 1e-9 and abs(cy) < 1e-9
        # the two components do not overlap
        pair = result.positions[:2]
        triangle = result.positions[2:]
        gap = min(distance(p, q) for p in pair for q in triangle)
        internal = max(
            max(distance(pair[0], pair[1]), 0.0),
            max(distance(a, b) for a, b in itertools.combinations(triangle, 2)),
        )
        assert gap > internal / 2

    def test_objective_is_a_python_float_on_every_branch(self):
        # a connected map, a pair plus a triangle, and three isolated terms
        for s in (EQUILATERAL, sim(5, {(0, 1): 1.0, (2, 3): 1.0, (2, 4): 1.0, (3, 4): 1.0}), sim(3, {})):
            assert type(layout(s, seed=42).objective) is float

    def test_all_isolated_nodes_still_satisfy_constraint(self):
        result = layout(sim(3, {}), seed=42)
        assert abs(mean_pairwise(result.positions) - 1.0) < 1e-9

    def test_returns_maplayout(self):
        result = layout(sim(2, {(0, 1): 1.0}), seed=0)
        assert isinstance(result, MapLayout)
        assert result.iterations_used >= 1


def criterion_06_graph():
    """The 12-node graph of acceptance criterion 06: a spanning path plus random chords."""
    rng = random.Random(10)
    strengths = {(i, i + 1): rng.uniform(0.3, 2.0) for i in range(11)}
    for i, j in itertools.combinations(range(12), 2):
        if (i, j) not in strengths and rng.random() < 0.35:
            strengths[(i, j)] = rng.uniform(0.3, 2.0)
    return sim(12, strengths)


class TestConvergence:
    def test_budget_exhausted_is_not_converged(self):
        result = layout(criterion_06_graph(), seed=5, max_iter=1)
        assert not result.converged
        assert result.iterations_used == 1

    def test_planted_two_blocks_converge_within_budget(self):
        # two 30-node blocks, each a path plus chords with heavy-tailed
        # strengths, joined by a few weak edges
        rng = random.Random(1)
        strengths = {}
        for i, j in itertools.combinations(range(60), 2):
            if i // 30 == j // 30:
                if j == i + 1 or rng.random() < 0.2:
                    strengths[(i, j)] = rng.lognormvariate(0.0, 1.5)
            elif rng.random() < 0.02:
                strengths[(i, j)] = 0.05 * rng.random()
        result = layout(sim(60, strengths), seed=42, max_iter=300)
        assert result.converged
        assert result.iterations_used < 300

    def test_converged_layout_is_stationary(self):
        rng = random.Random(21)
        strengths = {(i, i + 1): rng.uniform(0.2, 2.0) for i in range(14)}  # spanning path
        for i, j in itertools.combinations(range(15), 2):
            if (i, j) not in strengths and rng.random() < 0.3:
                strengths[(i, j)] = rng.uniform(0.2, 2.0)
        s = sim(15, strengths)
        result = layout(s, seed=3, tol=1e-12)
        assert result.converged
        base = layout_objective(s, result.positions)
        noise = np.random.default_rng(0)
        for _ in range(50):
            moved = np.array(result.positions) + noise.uniform(-1e-3, 1e-3, size=(15, 2))
            moved -= moved.mean(axis=0)
            moved /= mean_pairwise([tuple(p) for p in moved])
            assert layout_objective(s, [tuple(p) for p in moved]) >= base * (1 - 1e-9)


class TestKernels:
    """The in-place kernels against the expressions they replaced, kept here as references."""

    def test_distances_match_hypot(self):
        rng = np.random.default_rng(8)
        for scale in (1e-3, 1.0, 1e3):
            x = rng.uniform(-scale, scale, size=(300, 2))
            reference = np.hypot(np.subtract.outer(x[:, 0], x[:, 0]), np.subtract.outer(x[:, 1], x[:, 1]))
            np.testing.assert_allclose(_distances(x), reference, rtol=1e-15, atol=0)

    def test_edge_objective_matches_layout_objective_and_dense_laplacian(self):
        rng = random.Random(9)
        n = 50
        strengths = {
            (i, j): rng.lognormvariate(0.0, 1.0) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.2
        }
        pairs = sorted(strengths)
        ei = np.array([i for i, _ in pairs])
        ej = np.array([j for _, j in pairs])
        es = np.array([strengths[pair] for pair in pairs])
        laplacian = np.zeros((n, n))  # the dense Laplacian the layout used to score V with
        for (i, j), s in sorted(strengths.items()):
            laplacian[i, j] -= s
            laplacian[j, i] -= s
            laplacian[i, i] += s
            laplacian[j, j] += s
        for seed in range(5):
            y = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))
            value = _edge_objective(y, ei, ej, es)
            assert value == pytest.approx(layout_objective(sim(n, strengths), y.tolist()), rel=1e-12, abs=0)
            assert value == pytest.approx(float(np.einsum("ij,ij->", y, laplacian @ y)), rel=1e-12, abs=0)


class TestMemory:
    def test_peak_stays_below_six_n_by_n_arrays(self):
        # a connected 600-term map with log-normal strengths: a spanning path plus chords
        n = 600
        rng = random.Random(600)
        strengths = {(i, i + 1): rng.lognormvariate(0.0, 1.0) for i in range(n - 1)}
        for i, j in itertools.combinations(range(n), 2):
            if j > i + 1 and rng.random() < 0.05:
                strengths[(i, j)] = rng.lognormvariate(0.0, 1.0)
        s = sim(n, strengths)
        layout(EQUILATERAL, seed=1)  # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            result = layout(s, seed=1, max_iter=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations_used >= 1
        assert peak < 6 * 8 * n * n
