"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance and runtime budget is pinned here.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from citemap.cli import main
from citemap.clustering import cluster, quality
from citemap.compare import frequency_table
from citemap.clustering import Clustering
from citemap.exports import read_map_file, read_network_file
from citemap.layout import layout, layout_objective
from citemap.network import (
    association_strength,
    count_cooccurrences,
    select_top_terms,
    top_count,
)
from citemap.pipeline import PipelineConfig, analyze, compare_networks, run_pipeline
from citemap.terms import LexiconEntry

from conftest import network, sim


@contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    start = time.perf_counter()
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok and elapsed < budget_seconds else "FAIL"
        print(f"[criterion {number:02d}] {status} in {elapsed:.2f}s (budget {budget_seconds:g}s): {label}")
    assert elapsed < budget_seconds, f"criterion {number:02d} took {elapsed:.2f}s (budget {budget_seconds:g}s)"


def test_criterion_01_protocol_defaults(demo_corpus, tmp_path, capsys):
    with criterion(1, 1.0, "bare pipeline run uses min-occurrence 4, binary counting, fraction 0.6"):
        out = tmp_path / "out"
        assert main(["pipeline", "--corpus", str(demo_corpus), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        parameters = manifest["parameters"]
        assert parameters["min_occurrences"] == 4
        assert parameters["counting"] == "binary"
        assert parameters["relevance_fraction"] == 0.6
    capsys.readouterr()  # keep our criterion line visible, drop CLI chatter


def test_criterion_02_counting_oracle():
    with criterion(2, 5.0, "counts equal exhaustive pair enumeration on 200 random corpora"):
        rng = random.Random(20240901)
        corpora = 0
        while corpora < 200:
            n_units = rng.randint(1, 10)
            n_terms = rng.randint(2, 15)
            incidence: dict[str, dict[int, int]] = {}
            for t in range(n_terms):
                hits = {k: rng.randint(1, 4) for k in range(n_units) if rng.random() < 0.45}
                if hits:
                    incidence[f"term{t:02d}"] = hits
            if len(incidence) < 2:
                continue
            corpora += 1
            lexicon = tuple(LexiconEntry(term, dict(sorted(hits.items()))) for term, hits in sorted(incidence.items()))
            units = [""] * n_units
            for mode in ("binary", "full"):
                net = count_cooccurrences(units, lexicon, mode)
                terms = [node.term for node in net.terms]
                for i, j in itertools.combinations(range(len(terms)), 2):
                    expected = 0
                    for k in range(n_units):
                        a = incidence[terms[i]].get(k, 0)
                        b = incidence[terms[j]].get(k, 0)
                        if a and b:
                            expected += 1 if mode == "binary" else min(a, b)
                    assert net.edges.get((i, j), 0) == expected


def test_criterion_03_threshold_selection_arithmetic():
    with criterion(3, 1.0, "selection arithmetic 27->16->15, 184->110->97, 512->307->297"):
        for n, kept, n_excl, final in ((27, 16, 1, 15), (184, 110, 13, 97), (512, 307, 10, 297)):
            terms = {f"term{k:04d}": n - k for k in range(n)}
            edges = {(k, k + 1): 1 for k in range(n - 1)}
            net = network(terms, edges)
            scores = tuple(float(n - k) for k in range(n))
            exclusions = {f"term{k:04d}" for k in range(n_excl)}  # all inside the cut
            assert top_count(0.6, n) == kept == len(select_top_terms(net, scores, 0.6).terms)
            selected = select_top_terms(net, scores, 0.6, exclusions)
            assert len(selected.terms) == final


def enumerate_optimum(n, strengths, resolution):
    best = float("-inf")
    best_labels: list[int] = []

    def descend(v, labels, blocks, value):
        nonlocal best, best_labels
        if v == n:
            if value > best:
                best, best_labels = value, labels[:]
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
    return best, best_labels


def test_criterion_04_clustering_optimality():
    with criterion(4, 30.0, "cluster() matches exhaustive partition search on 100 graphs <= 8 nodes"):
        rng = random.Random(77)
        graphs = 0
        while graphs < 100:
            n = rng.randint(2, 8)
            density = rng.uniform(0.2, 0.9)
            strengths = {}
            for i, j in itertools.combinations(range(n), 2):
                if rng.random() < density:
                    strengths[(i, j)] = round(rng.uniform(0.05, 2.0), 3)
            if not strengths:
                continue
            resolution = round(rng.uniform(0.1, 1.5), 3)
            graphs += 1
            s = sim(n, strengths)
            found = cluster(s, resolution=resolution, seed=graphs, restarts=10)
            optimum, best_labels = enumerate_optimum(n, strengths, resolution)
            assert abs(found.quality - optimum) <= 1e-12, (
                f"graph {graphs}: n={n} resolution={resolution} got {found.quality} optimum {optimum}"
            )
            # the canonical evaluator agrees on both partitions
            assert quality(s, found, resolution) == pytest.approx(
                quality(s, [b + 1 for b in best_labels], resolution), abs=1e-12
            )


def test_criterion_05_clustering_degenerate_cases():
    with criterion(5, 1.0, "resolution above max strength -> singletons; planted cliques split"):
        scattered = sim(5, {(0, 1): 0.9, (1, 2): 0.8, (3, 4): 0.7})
        singletons = cluster(scattered, resolution=1.0, seed=1, restarts=5)
        assert singletons.n_clusters == 5 and singletons.quality == 0.0

        cliques = sim(6, {
            (0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0,
            (3, 4): 1.0, (3, 5): 1.0, (4, 5): 1.0,
            (2, 3): 0.1,
        })
        split = cluster(cliques, resolution=0.5, seed=42, restarts=10)
        assert split.n_clusters == 2
        groups = {}
        for index, label in enumerate(split.assignment):
            groups.setdefault(label, set()).add(index)
        assert set(map(frozenset, groups.values())) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}


def test_criterion_06_layout_contracts():
    with criterion(6, 5.0, "layout constraint, monotonicity, and geometry contracts"):
        # n = 2: exact unit distance
        two = layout(sim(2, {(0, 1): 1.0}), seed=42)
        (x0, y0), (x1, y1) = two.positions
        assert abs(math.hypot(x1 - x0, y1 - y0) - 1.0) < 1e-9

        # equal-similarity triangle: pairwise side equality within 1e-6
        triangle = sim(3, {(0, 1): 1.5, (0, 2): 1.5, (1, 2): 1.5})
        result = layout(triangle, seed=42, tol=1e-13)
        sides = [
            math.hypot(result.positions[a][0] - result.positions[b][0],
                       result.positions[a][1] - result.positions[b][1])
            for a, b in ((0, 1), (0, 2), (1, 2))
        ]
        assert max(sides) - min(sides) < 1e-6

        # constraint residual < 1e-9 and non-increasing objective on a bigger graph
        rng = random.Random(10)
        strengths = {(i, i + 1): rng.uniform(0.3, 2.0) for i in range(11)}
        for i, j in itertools.combinations(range(12), 2):
            if (i, j) not in strengths and rng.random() < 0.35:
                strengths[(i, j)] = rng.uniform(0.3, 2.0)
        s = sim(12, strengths)
        trace: list[float] = []
        result = layout(s, seed=5, trace=trace)
        pairs = list(itertools.combinations(range(12), 2))
        mean_distance = sum(
            math.hypot(result.positions[i][0] - result.positions[j][0],
                       result.positions[i][1] - result.positions[j][1])
            for i, j in pairs
        ) / len(pairs)
        assert abs(mean_distance - 1.0) < 1e-9
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))

        # objective invariant under rotation + translation within 1e-9
        theta = 0.83
        moved = [
            (
                math.cos(theta) * x - math.sin(theta) * y + 4.0,
                math.sin(theta) * x + math.cos(theta) * y - 7.0,
            )
            for x, y in result.positions
        ]
        assert abs(layout_objective(s, result.positions) - layout_objective(s, moved)) < 1e-9


def test_criterion_07_scale_invariance():
    with criterion(7, 2.0, "count scaling: bit-identical strengths, unchanged partition"):
        rng = random.Random(4)
        edges = {}
        for i, j in itertools.combinations(range(9), 2):
            if rng.random() < 0.5:
                edges[(i, j)] = rng.randint(1, 6)
        occurrences = {f"t{k}": 9 for k in range(9)}
        base_net = network(occurrences, edges)
        base_sim = association_strength(base_net)
        base_clusters = cluster(base_sim, resolution=1.0, seed=42, restarts=10)
        for k in (2, 7):
            scaled_net = network(occurrences, {p: c * k for p, c in edges.items()})
            scaled_sim = association_strength(scaled_net)
            assert scaled_sim.strengths == base_sim.strengths  # bit-identical
            scaled_clusters = cluster(scaled_sim, resolution=1.0, seed=42, restarts=10)
            assert scaled_clusters.assignment == base_clusters.assignment
            assert scaled_clusters.quality == base_clusters.quality
        # Q scales exactly with k = 2 when the resolution is scaled along
        labels = list(base_clusters.assignment)
        doubled = sim(9, {p: 2.0 * v for p, v in base_sim.strengths.items()})
        assert quality(doubled, labels, 2.0 * 1.0) == 2.0 * quality(base_sim, labels, 1.0)


def test_criterion_08_triplet_ordering(planted_corpus, tmp_path):
    with criterion(8, 2.0, "planted corpus: cited and context networks are the closer pair"):
        config = PipelineConfig(corpus=str(planted_corpus), out_dir=str(tmp_path / "out"))
        report = compare_networks(config)
        assert report.ordering_holds["jaccard"] is True
        assert report.ordering_holds["cosine"] is True


def test_criterion_09_determinism_and_round_trips(demo_corpus, tmp_path):
    with criterion(9, 2.0, "byte-identical reruns; exports re-import to equal structures"):
        config = PipelineConfig(corpus=str(demo_corpus), out_dir=str(tmp_path / "out"))
        first = {name: path.read_bytes() for name, path in run_pipeline(config).items()}
        paths = run_pipeline(config)
        second = {name: path.read_bytes() for name, path in paths.items()}
        assert first == second

        result = analyze(config)
        reimported = read_network_file(paths["network.tsv"], paths["network_terms.tsv"])
        assert reimported.terms == result.network.terms
        assert reimported.edges == result.network.edges
        records = read_map_file(paths["map.tsv"])
        assert len(records) == len(result.network.terms)
        assert [r.label for r in records] == list(result.network.term_strings)
        assert [r.cluster for r in records] == list(result.clustering.assignment)


def test_criterion_10_frequency_table_format():
    with criterion(10, 1.0, "frequency-table fixture comes out in exact order"):
        counts = {"journal": 17, "impact": 11, "impact factor": 8, "journal impact factor": 6}
        net = network(counts, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
        clustering = Clustering((1, 1, 1, 1), 0.0)
        assert frequency_table(net, clustering, cluster_id=1, k=4) == (
            ("journal", 17),
            ("impact", 11),
            ("impact factor", 8),
            ("journal impact factor", 6),
        )
