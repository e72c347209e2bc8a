"""Output checks for benchmark jobs.

Every check raises ``CheckError`` naming what is wrong. The map check also
returns the job's two quality figures, each divided by a constant of the
input network so that the figure is comparable across corpora while the
ratio between two versions of the program on one corpus stays exact:

* ``layout_objective``: V(x) over the V of a spectral reference layout, the
  map on the eigenvectors of the similarity Laplacian's two smallest nonzero
  eigenvalues m1, m2 (eigenvalues 2 and 3 of a connected map), scaled to
  root-mean-square pairwise distance 1, whose objective is (m1 + m2)(n - 1)/4.
  Lower is better.
* ``cluster_quality``: Q over the total association strength of the map's
  edges. Higher is better.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from citemap.clustering import quality
from citemap.exports import read_map_file, read_network_file
from citemap.layout import layout_objective
from citemap.network import association_strength

MAP_ARTIFACTS = ("map.tsv", "network.tsv", "network_terms.tsv", "graph.json",
                 "map.svg", "corpus_stats.json", "manifest.json")
COMPARE_ARTIFACTS = ("comparison.json",)
# manifest parameters that hold paths, which differ between jobs by design
MANIFEST_PATH_FIELDS = ("corpus", "out_dir")
RESIDUAL_TOL = 1e-9
TSV_TOL = 1e-4  # map.tsv carries four decimals


class CheckError(Exception):
    """A job's outputs are missing or wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def digests(out_dir: Path, names: tuple[str, ...]) -> dict[str, str]:
    """SHA-256 of each artifact; the manifest's path fields are dropped first."""
    result = {}
    for name in names:
        path = out_dir / name
        _require(path.is_file(), f"missing artifact {name}")
        data = path.read_bytes()
        if name == "manifest.json":
            manifest = json.loads(data)
            for field in MANIFEST_PATH_FIELDS:
                manifest["parameters"].pop(field, None)
            data = json.dumps(manifest, sort_keys=True).encode()
        result[name] = hashlib.sha256(data).hexdigest()
    return result


def same_outputs(reference: dict[str, str], current: dict[str, str]) -> None:
    differing = sorted(name for name in reference if reference[name] != current.get(name))
    _require(not differing, f"outputs differ from an earlier job on the same corpus: {differing}")


def _residuals(points: np.ndarray) -> tuple[float, float]:
    """Largest centroid coordinate and |mean pairwise distance - 1|."""
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    mean_distance = float(np.sqrt((diff ** 2).sum(axis=-1)).sum() / (n * (n - 1)))
    return float(np.abs(points.mean(axis=0)).max()), abs(mean_distance - 1.0)


def spectral_reference(strengths: dict[tuple[int, int], float], n: int) -> float:
    """(m1 + m2)(n - 1)/4 for the two smallest nonzero similarity-Laplacian eigenvalues."""
    laplacian = np.zeros((n, n))
    for (i, j), s in strengths.items():
        laplacian[i, j] -= s
        laplacian[j, i] -= s
        laplacian[i, i] += s
        laplacian[j, j] += s
    eigenvalues = np.linalg.eigvalsh(laplacian)
    nonzero = eigenvalues[eigenvalues > 1e-9 * eigenvalues[-1]]
    _require(len(nonzero) >= 2, f"similarity Laplacian of {n} terms has fewer than two nonzero eigenvalues")
    return float(nonzero[0] + nonzero[1]) * (n - 1) / 4


def check_map(out_dir: Path) -> dict[str, float]:
    """Check one pipeline job's artifacts; return its normalized quality figures."""
    digests(out_dir, MAP_ARTIFACTS)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    summary = manifest["summary"]
    records = read_map_file(out_dir / "map.tsv")
    nodes = sorted(json.loads((out_dir / "graph.json").read_text(encoding="utf-8"))["nodes"],
                   key=lambda node: node["id"])
    n = len(records)
    _require(n >= 3, f"map has {n} terms")
    _require([r.id for r in records] == list(range(1, n + 1)), "map.tsv ids are not 1..n")
    _require([node["id"] for node in nodes] == list(range(1, n + 1)), "graph.json node ids are not 1..n")
    _require([r.label for r in records] == [node["label"] for node in nodes], "map.tsv and graph.json labels differ")

    positions = np.array([[node["x"], node["y"]] for node in nodes], dtype=float)
    centroid, residual = _residuals(positions)
    _require(centroid <= RESIDUAL_TOL, f"layout is not centred: centroid coordinate {centroid:.3e}")
    _require(residual <= RESIDUAL_TOL, f"mean pairwise distance is off 1 by {residual:.3e}")
    tsv_positions = np.array([[r.x, r.y] for r in records], dtype=float)
    rounded = np.array([[float(f"{node['x']:.4f}"), float(f"{node['y']:.4f}")] for node in nodes])
    _require(np.array_equal(tsv_positions, rounded),
             "map.tsv coordinates are not graph.json's rounded to four decimals")
    centroid, residual = _residuals(tsv_positions)
    _require(centroid <= TSV_TOL and residual <= TSV_TOL,
             f"map.tsv layout residuals {centroid:.3e}, {residual:.3e} exceed the rounding tolerance")

    clusters = [r.cluster for r in records]
    _require(sorted(set(clusters)) == list(range(1, max(clusters) + 1)), "cluster ids are not contiguous from 1")
    _require(clusters == [node["cluster"] for node in nodes], "map.tsv and graph.json clusters differ")
    _require(summary["clusters"] == max(clusters), "manifest cluster count differs from map.tsv")

    network = read_network_file(out_dir / "network.tsv", out_dir / "network_terms.tsv")
    sim = association_strength(network)
    _require(list(sim.terms) == [r.label for r in records], "network terms differ from map terms")
    objective = layout_objective(sim, positions.tolist())
    q = quality(sim, clusters, manifest["parameters"]["resolution"])
    _require(_close(objective, summary["layout_objective"]),
             f"manifest layout objective {summary['layout_objective']!r} != recomputed {objective!r}")
    _require(_close(q, summary["clustering_quality"]),
             f"manifest clustering quality {summary['clustering_quality']!r} != recomputed {q!r}")
    total_strength = math.fsum(sim.strengths.values())
    return {
        "layout_objective": objective / spectral_reference(sim.strengths, n),
        "cluster_quality": q / total_strength,
    }


def check_compare(out_dir: Path) -> None:
    digests(out_dir, COMPARE_ARTIFACTS)
    report = json.loads((out_dir / "comparison.json").read_text(encoding="utf-8"))
    for metric in ("jaccard", "cosine"):
        matrix = report[metric]
        _require(report["ordering_holds"].get(metric) is True, f"{metric} ordering does not hold")
        _require(matrix["cited"]["context"] > matrix["citing"]["context"],
                 f"{metric}: sim(cited, context) is not above sim(citing, context)")
