"""Exporters: map/network TSV round-trips, graph JSON, SVG determinism."""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET

import pytest

from citemap.clustering import Clustering
from citemap.errors import ConsistencyError, ParseError
from citemap.exports import (
    MapRecord,
    export_graph_json,
    export_map,
    export_network,
    export_terms,
    map_records,
    read_map_file,
    read_network_file,
    render_svg,
)
from citemap.layout import MapLayout, layout
from citemap.network import association_strength

from conftest import network, sim


def single_term_fixture():
    net = network({"solo": 4}, {})
    lay = MapLayout(((0.0, 0.0),), 0.0, True, 0)
    clustering = Clustering((1,), 0.0)
    return net, lay, clustering


def pair_fixture():
    net = network({"alpha": 1, "beta": 9}, {(0, 1): 1})
    s = association_strength(net)  # single edge: strength 2.0
    lay = layout(s, seed=42)
    clustering = Clustering((1, 2), 0.0)
    return net, s, lay, clustering


class TestExportMap:
    def test_single_term_row(self, tmp_path):
        net, lay, clustering = single_term_fixture()
        path = export_map(lay, net, clustering, tmp_path / "map.tsv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id\tlabel\tx\ty\tcluster\toccurrences"
        assert lines[1] == "1\tsolo\t0.0000\t0.0000\t1\t4"

    def test_two_terms_at_unit_distance(self, tmp_path):
        net, _, lay, clustering = pair_fixture()
        path = export_map(lay, net, clustering, tmp_path / "map.tsv")
        records = read_map_file(path)
        dist = math.hypot(records[0].x - records[1].x, records[0].y - records[1].y)
        assert dist == pytest.approx(1.0, abs=1e-4)  # 4-decimal quantization

    def test_round_trip_is_stable(self, tmp_path):
        net, _, lay, clustering = pair_fixture()
        first_path = export_map(lay, net, clustering, tmp_path / "map1.tsv")
        records = read_map_file(first_path)
        # re-export the imported records through a synthetic layout
        lay2 = MapLayout(tuple((r.x, r.y) for r in records), 0.0, True, 0)
        second_path = export_map(lay2, net, clustering, tmp_path / "map2.tsv")
        assert read_map_file(second_path) == records
        assert first_path.read_bytes() == second_path.read_bytes()

    def test_four_decimals_round_half_even(self, tmp_path):
        # 1/32 and 3/32 are exact binary ties at the fourth decimal
        net = network({"a": 1, "b": 1}, {(0, 1): 1})
        lay = MapLayout(((0.03125, 0.09375), (0.5, 0.25)), 0.0, True, 0)
        clustering = Clustering((1, 1), 0.0)
        path = export_map(lay, net, clustering, tmp_path / "map.tsv")
        row = path.read_text(encoding="utf-8").splitlines()[1].split("\t")
        assert row[2] == "0.0312" and row[3] == "0.0938"

    def test_rows_ordered_by_id(self, tmp_path):
        net = network({"zz": 1, "aa": 2, "mm": 3}, {(0, 1): 1, (1, 2): 1})
        lay = MapLayout(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), 0.0, True, 0)
        clustering = Clustering((1, 1, 2), 0.0)
        records = read_map_file(export_map(lay, net, clustering, tmp_path / "map.tsv"))
        assert [r.id for r in records] == [1, 2, 3]
        assert [r.label for r in records] == ["zz", "aa", "mm"]  # network order, not sorted

    def test_position_count_mismatch_rejected(self, tmp_path):
        net = network({"a": 1, "b": 1}, {(0, 1): 1})
        lay = MapLayout(((0.0, 0.0),), 0.0, True, 0)
        clustering = Clustering((1, 1), 0.0)
        with pytest.raises(ConsistencyError):
            export_map(lay, net, clustering, tmp_path / "map.tsv")

    def test_reader_validates_header(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("nope\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_map_file(bad)


class TestExportNetwork:
    def test_triangle_rows(self, tmp_path):
        net = network({"a": 1, "b": 1, "c": 1}, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        path = export_network(net, tmp_path / "net.tsv")
        export_terms(net, tmp_path / "terms.tsv")
        assert path.read_text(encoding="utf-8") == "1\t2\t1\n1\t3\t1\n2\t3\t1\n"
        terms = (tmp_path / "terms.tsv").read_text(encoding="utf-8")
        assert terms == "1\ta\t1\n2\tb\t1\n3\tc\t1\n"

    def test_empty_edge_set_writes_empty_file(self, tmp_path):
        net = network({"a": 1}, {})
        path = export_network(net, tmp_path / "net.tsv")
        assert path.read_bytes() == b""

    def test_round_trip(self, tmp_path):
        net = network({"a": 3, "b": 5, "c": 2}, {(0, 1): 4, (1, 2): 1})
        export_network(net, tmp_path / "net.tsv")
        export_terms(net, tmp_path / "terms.tsv")
        back = read_network_file(tmp_path / "net.tsv", tmp_path / "terms.tsv")
        assert back.terms == net.terms
        assert back.edges == net.edges

    def test_rows_sorted_by_pair(self, tmp_path):
        net = network({"a": 1, "b": 1, "c": 1}, {(1, 2): 1, (0, 2): 2, (0, 1): 3})
        path = export_network(net, tmp_path / "net.tsv")
        pairs = [tuple(map(int, line.split("\t")[:2])) for line in path.read_text().splitlines()]
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("terms", ["1\ta\t3\nx\tb\t5\n", "1\ta\t3\n2\tb\tmany\n"])
    def test_non_integer_term_field_names_line(self, tmp_path, terms):
        (tmp_path / "terms.tsv").write_text(terms, encoding="utf-8")
        (tmp_path / "net.tsv").write_text("1\t2\t1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"terms\.tsv:2: invalid literal"):
            read_network_file(tmp_path / "net.tsv", tmp_path / "terms.tsv")

    def test_repeated_pair_names_line(self, tmp_path):
        (tmp_path / "terms.tsv").write_text("1\ta\t3\n2\tb\t5\n", encoding="utf-8")
        (tmp_path / "net.tsv").write_text("1\t2\t3\n1\t2\t5\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"net\.tsv:2: repeated index pair \(1, 2\)"):
            read_network_file(tmp_path / "net.tsv", tmp_path / "terms.tsv")


class TestGraphJson:
    def test_nodes_and_edges(self, tmp_path):
        net, s, lay, clustering = pair_fixture()
        path = export_graph_json(net, s, lay, clustering, tmp_path / "graph.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert [node["label"] for node in payload["nodes"]] == ["alpha", "beta"]
        assert payload["edges"][0]["cooccurrences"] == 1
        assert payload["edges"][0]["strength"] == pytest.approx(2.0)

    def test_term_mismatch_rejected(self, tmp_path):
        net, _, lay, clustering = pair_fixture()
        other = sim(2, {(0, 1): 1.0})
        wrong = type(other)(("x", "y"), other.strengths)
        with pytest.raises(ConsistencyError):
            export_graph_json(net, wrong, lay, clustering, tmp_path / "graph.json")


class TestRenderSvg:
    def test_single_node_svg(self, tmp_path):
        net, lay, clustering = single_term_fixture()
        path = render_svg(lay, net, clustering, tmp_path / "map.svg")
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}circle")) == 1
        assert len(root.findall(f"{ns}text")) == 1

    def test_radius_formula(self, tmp_path):
        net, _, lay, clustering = pair_fixture()  # occurrences 1 and 9
        path = render_svg(lay, net, clustering, tmp_path / "map.svg")
        radii = [float(m) for m in re.findall(r'r="([0-9.]+)"', path.read_text(encoding="utf-8"))]
        assert radii == [7.0, 13.0]  # 4 + 3*sqrt(1), 4 + 3*sqrt(9)

    def test_node_scale_option(self, tmp_path):
        net, _, lay, clustering = pair_fixture()
        path = render_svg(lay, net, clustering, tmp_path / "map.svg", node_scale=2.0)
        radii = [float(m) for m in re.findall(r'r="([0-9.]+)"', path.read_text(encoding="utf-8"))]
        assert radii == [10.0, 22.0]

    def test_canvas_dimensions(self, tmp_path):
        net, lay, clustering = single_term_fixture()
        root = ET.fromstring(render_svg(lay, net, clustering, tmp_path / "m.svg").read_text())
        assert root.attrib["width"] == "1000" and root.attrib["height"] == "700"

    def test_deterministic_bytes(self, tmp_path):
        net, s, lay, clustering = pair_fixture()
        first = render_svg(lay, net, clustering, tmp_path / "a.svg", sim=s).read_bytes()
        second = render_svg(lay, net, clustering, tmp_path / "b.svg", sim=s).read_bytes()
        assert first == second

    def test_top_quartile_edge_filter(self, tmp_path):
        # 8 edges: exactly ceil(8/4) = 2 drawn
        counts = {f"t{k}": 1 for k in range(8)}
        edges = {(k, k + 1): k + 1 for k in range(7)}
        edges[(0, 7)] = 9
        net = network(counts, edges)
        s = association_strength(net)
        lay = layout(s, seed=1)
        clustering = Clustering(tuple([1] * 8), 0.0)
        svg = render_svg(lay, net, clustering, tmp_path / "m.svg", sim=s).read_text()
        assert svg.count("<line") == 2

    def test_labels_escaped(self, tmp_path):
        net = network({"impact & <factor>": 1}, {})
        lay = MapLayout(((0.0, 0.0),), 0.0, True, 0)
        clustering = Clustering((1,), 0.0)
        text = render_svg(lay, net, clustering, tmp_path / "m.svg").read_text()
        assert "impact &amp; &lt;factor&gt;" in text

    def test_labels_escaped_as_saxutils(self, tmp_path):
        from xml.sax.saxutils import escape

        labels = ["a &amp; b", "&lt;&gt;", ">>&<<", "x\"y'z"]
        net = network({label: 1 for label in labels}, {})
        lay = MapLayout(tuple((float(k), 0.0) for k in range(len(labels))), 0.0, True, 0)
        clustering = Clustering((1,) * len(labels), 0.0)
        text = render_svg(lay, net, clustering, tmp_path / "m.svg").read_text()
        assert re.findall(r'font-size="11">(.*)</text>', text) == [escape(label) for label in labels]


class TestMapRecords:
    def test_one_record_per_term(self):
        net, _, lay, clustering = pair_fixture()
        records = map_records(lay, net, clustering)
        assert [r.id for r in records] == [1, 2]
        assert records[0] == MapRecord(1, "alpha", lay.positions[0][0], lay.positions[0][1], 1, 1)
