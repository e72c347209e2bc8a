"""Map, network, JSON, and SVG exporters plus the matching readers.

All writers emit UTF-8 with LF line endings and deterministic formatting so
identical inputs reproduce identical bytes. Map coordinates carry exactly
four decimals (round-half-even); the network file has no header and lists
1-based index pairs with i < j.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .clustering import Clustering
from .errors import ConsistencyError, ParseError
from .layout import MapLayout
from .network import CoocNetwork, SimilarityMatrix, TermNode

MAP_COLUMNS = ("id", "label", "x", "y", "cluster", "occurrences")

CANVAS_WIDTH = 1000
CANVAS_HEIGHT = 700
_CANVAS_MARGIN = 70.0

# fixed 18-color cluster palette; node fill is PALETTE[cluster % 18]
PALETTE = (
    "#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94", "#f7b6d2", "#dbdb8d",
)


def write_lines(path: str | Path, rows: list[str]) -> Path:
    """Write ``rows`` as UTF-8 lines with LF endings; a trailing newline unless there are none."""
    path = Path(path)
    path.write_text("\n".join(rows) + ("\n" if rows else ""), encoding="utf-8", newline="\n")
    return path


def write_json(path: str | Path, payload: dict) -> Path:
    """Write ``payload`` as indented JSON with sorted keys, UTF-8, LF endings."""
    return write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _xml_escape(text: str) -> str:
    # what xml.sax.saxutils.escape does, without importing urllib and http.client through it
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(frozen=True)
class MapRecord:
    id: int
    label: str
    x: float
    y: float
    cluster: int
    occurrences: int


def map_records(layout: MapLayout, net: CoocNetwork, clustering: Clustering,
                sim: SimilarityMatrix | None = None) -> list[MapRecord]:
    """One record per term, ids 1-based in term order; ConsistencyError unless the inputs describe the same terms."""
    n = len(net.terms)
    if len(layout.positions) != n:
        raise ConsistencyError(f"{len(layout.positions)} positions for {n} terms")
    if len(clustering.assignment) != n:
        raise ConsistencyError(f"{len(clustering.assignment)} cluster assignments for {n} terms")
    if sim is not None and tuple(sim.terms) != net.term_strings:
        raise ConsistencyError("similarity matrix and network terms differ")
    return [
        MapRecord(
            id=i + 1,
            label=net.terms[i].term,
            x=layout.positions[i][0],
            y=layout.positions[i][1],
            cluster=clustering.assignment[i],
            occurrences=net.terms[i].occurrences,
        )
        for i in range(len(net.terms))
    ]


def export_map(layout: MapLayout, net: CoocNetwork, clustering: Clustering, path: str | Path) -> Path:
    """Write the map TSV: id, label, x, y, cluster, occurrences."""
    lines = ["\t".join(MAP_COLUMNS)]
    for rec in map_records(layout, net, clustering):
        lines.append(f"{rec.id}\t{rec.label}\t{rec.x:.4f}\t{rec.y:.4f}\t{rec.cluster}\t{rec.occurrences}")
    return write_lines(path, lines)


def read_map_file(path: str | Path) -> list[MapRecord]:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split("\t")) != MAP_COLUMNS:
        raise ParseError(f"{path}:1: expected header columns {MAP_COLUMNS}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(MAP_COLUMNS):
            raise ParseError(f"{path}:{lineno}: expected {len(MAP_COLUMNS)} columns, got {len(parts)}")
        try:
            records.append(MapRecord(int(parts[0]), parts[1], float(parts[2]), float(parts[3]),
                                     int(parts[4]), int(parts[5])))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return records


def export_network(net: CoocNetwork, path: str | Path) -> Path:
    """Write the edge list TSV (no header); ``export_terms`` writes its term sidecar.

    Rows are ``i<TAB>j<TAB>c_ij`` with 1-based indices, i < j, sorted; an
    empty edge set produces an empty file.
    """
    return write_lines(path, [f"{i + 1}\t{j + 1}\t{c}" for (i, j), c in net.edges.items()])


def export_terms(net: CoocNetwork, path: str | Path) -> Path:
    """Write the term sidecar of the edge list: ``index<TAB>term<TAB>occurrences``, 1-based."""
    return write_lines(path, [f"{i + 1}\t{node.term}\t{node.occurrences}" for i, node in enumerate(net.terms)])


def read_network_file(path: str | Path, terms_path: str | Path) -> CoocNetwork:
    terms: list[TermNode] = []
    terms_path = Path(terms_path)
    for lineno, line in enumerate(terms_path.read_text(encoding="utf-8").splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"{terms_path}:{lineno}: expected 'index<TAB>term<TAB>occurrences'")
        try:
            index, occurrences = int(parts[0]), int(parts[2])
        except ValueError as exc:
            raise ParseError(f"{terms_path}:{lineno}: {exc}") from exc
        if index != lineno:
            raise ParseError(f"{terms_path}:{lineno}: index {index} out of order")
        terms.append(TermNode(parts[1], occurrences))
    edges: dict[tuple[int, int], int] = {}
    path = Path(path)
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'i<TAB>j<TAB>count'")
        try:
            i, j, count = (int(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not 1 <= i < j <= len(terms):
            raise ParseError(f"{path}:{lineno}: bad index pair ({i}, {j})")
        if (i - 1, j - 1) in edges:
            raise ParseError(f"{path}:{lineno}: repeated index pair ({i}, {j})")
        edges[(i - 1, j - 1)] = count
    return CoocNetwork(tuple(terms), edges)


def export_graph_json(net: CoocNetwork, sim: SimilarityMatrix, layout: MapLayout,
                      clustering: Clustering, path: str | Path) -> Path:
    """Write the combined graph JSON (nodes with positions, weighted edges)."""
    nodes = [asdict(record) for record in map_records(layout, net, clustering, sim)]
    edges = [
        {"source": i + 1, "target": j + 1, "cooccurrences": c, "strength": sim.strengths[(i, j)]}
        for (i, j), c in net.edges.items()
    ]
    return write_json(path, {"nodes": nodes, "edges": edges})


def _node_radius(occurrences: int, node_scale: float) -> float:
    return 4.0 + node_scale * 3.0 * math.sqrt(occurrences)


def render_svg(layout: MapLayout, net: CoocNetwork, clustering: Clustering, path: str | Path,
               sim: SimilarityMatrix | None = None, node_scale: float = 1.0) -> Path:
    """Render a deterministic SVG map (1000x700).

    Node radius is 4 + node_scale * 3 * sqrt(occurrences); fill comes from
    the fixed 18-color palette via cluster id mod palette size; the label
    sits centered under the node. Only the top quartile of edges by
    strength is drawn (strength falls back to co-occurrence counts when no
    similarity matrix is given), stroke width proportional to strength.
    """
    records = map_records(layout, net, clustering, sim)
    n = len(records)
    xs = [rec.x for rec in records]
    ys = [rec.y for rec in records]
    span_x = (max(xs) - min(xs)) if n > 1 else 0.0
    span_y = (max(ys) - min(ys)) if n > 1 else 0.0
    scale_x = (CANVAS_WIDTH - 2 * _CANVAS_MARGIN) / span_x if span_x > 0 else 0.0
    scale_y = (CANVAS_HEIGHT - 2 * _CANVAS_MARGIN) / span_y if span_y > 0 else 0.0
    scale = min(s for s in (scale_x, scale_y) if s > 0) if (scale_x > 0 or scale_y > 0) else 0.0
    center_x = (max(xs) + min(xs)) / 2 if n else 0.0
    center_y = (max(ys) + min(ys)) / 2 if n else 0.0

    def to_canvas(px: float, py: float) -> tuple[float, float]:
        # SVG y grows downward
        return (CANVAS_WIDTH / 2 + (px - center_x) * scale,
                CANVAS_HEIGHT / 2 - (py - center_y) * scale)

    weights = dict(sim.strengths) if sim is not None else {pair: float(c) for pair, c in net.edges.items()}
    ranked = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    quartile = ranked[: math.ceil(len(ranked) / 4)] if ranked else []
    max_weight = max((w for _, w in quartile), default=1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}" '
        f'viewBox="0 0 {CANVAS_WIDTH} {CANVAS_HEIGHT}">',
        f'  <rect width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}" fill="#ffffff"/>',
    ]
    for (i, j), weight in sorted(quartile):
        x1, y1 = to_canvas(records[i].x, records[i].y)
        x2, y2 = to_canvas(records[j].x, records[j].y)
        width = 0.75 + 2.25 * (weight / max_weight)
        parts.append(
            f'  <line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="#b0b0b0" stroke-width="{width:.2f}" stroke-opacity="0.6"/>'
        )
    for rec in records:
        cx, cy = to_canvas(rec.x, rec.y)
        radius = _node_radius(rec.occurrences, node_scale)
        color = PALETTE[rec.cluster % len(PALETTE)]
        label = _xml_escape(rec.label)
        parts.append(f'  <circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" fill="{color}" fill-opacity="0.85"/>')
        parts.append(
            f'  <text x="{cx:.2f}" y="{cy + radius + 11.0:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return write_lines(path, parts)
