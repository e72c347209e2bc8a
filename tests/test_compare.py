"""Frequency tables and the three-way network comparison."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from citemap.clustering import Clustering
from citemap.compare import (
    frequency_table,
    term_set_similarity,
    triplet_report,
    weighted_profile_similarity,
)
from citemap.errors import ConsistencyError
from citemap.exports import write_json

from conftest import network


def one_cluster(n: int) -> Clustering:
    return Clustering(tuple([1] * n), 0.0)


CITED_COUNTS = {"journal": 17, "impact": 11, "impact factor": 8, "journal impact factor": 6}


class TestFrequencyTable:
    def test_reference_count_order(self):
        net = network(CITED_COUNTS, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
        assert frequency_table(net, one_cluster(4), cluster_id=1, k=4) == (
            ("journal", 17),
            ("impact", 11),
            ("impact factor", 8),
            ("journal impact factor", 6),
        )

    def test_k_zero_gives_empty_table(self):
        net = network(CITED_COUNTS, {(0, 1): 1})
        assert frequency_table(net, one_cluster(4), 1, 0) == ()

    def test_k_truncates(self):
        net = network(CITED_COUNTS, {(0, 1): 1})
        assert len(frequency_table(net, one_cluster(4), 1, 2)) == 2

    def test_ties_break_lexicographically(self):
        net = network({"zebra": 7, "apple": 7, "mango": 9}, {(0, 1): 1, (1, 2): 1})
        assert frequency_table(net, one_cluster(3), 1, 3) == (("mango", 9), ("apple", 7), ("zebra", 7))

    def test_only_cluster_members_listed(self):
        net = network({"a": 5, "b": 4, "c": 3}, {(0, 1): 1, (1, 2): 1})
        clustering = Clustering((1, 1, 2), 0.0)
        assert frequency_table(net, clustering, 2, 5) == (("c", 3),)

    def test_missing_cluster_rejected(self):
        net = network({"a": 5}, {})
        with pytest.raises(ValueError):
            frequency_table(net, one_cluster(1), 2, 3)

    def test_misaligned_clustering_rejected(self):
        net = network({"a": 5, "b": 4}, {(0, 1): 1})
        with pytest.raises(ConsistencyError):
            frequency_table(net, one_cluster(3), 1, 3)

    def test_deterministic_under_term_permutation(self):
        counts = {"alpha": 9, "beta": 7, "gamma": 7, "delta": 2}
        net1 = network(counts, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
        reordered = dict(reversed(list(counts.items())))
        net2 = network(reordered, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
        assert frequency_table(net1, one_cluster(4), 1, 4) == frequency_table(net2, one_cluster(4), 1, 4)


class TestSetSimilarity:
    def test_identical_sets(self):
        a = network({"x": 1, "y": 1}, {(0, 1): 1})
        b = network({"y": 2, "x": 5}, {(0, 1): 3})
        assert term_set_similarity(a, b) == 1.0

    def test_half_overlap(self):
        a = network({"a": 1, "b": 1, "c": 1}, {(0, 1): 1})
        b = network({"b": 1, "c": 1, "d": 1}, {(0, 1): 1})
        assert term_set_similarity(a, b) == 0.5  # 2 shared / 4 union

    def test_disjoint_sets(self):
        a = network({"a": 1}, {})
        b = network({"b": 1}, {})
        assert term_set_similarity(a, b) == 0.0

    def test_both_empty_rejected(self):
        empty = network({}, {})
        with pytest.raises(ValueError):
            term_set_similarity(empty, empty)

    def test_symmetric_and_bounded(self):
        a = network({"a": 1, "b": 1, "c": 1}, {(0, 1): 1})
        b = network({"c": 1, "d": 1}, {(0, 1): 1})
        forward = term_set_similarity(a, b)
        assert forward == term_set_similarity(b, a)
        assert 0.0 <= forward <= 1.0


class TestProfileSimilarity:
    def test_identical_networks(self):
        a = network({"x": 3, "y": 4}, {(0, 1): 1})
        assert weighted_profile_similarity(a, a) == pytest.approx(1.0)

    def test_disjoint_vocabularies(self):
        a = network({"x": 3}, {})
        b = network({"q": 2}, {})
        assert weighted_profile_similarity(a, b) == 0.0

    def test_hand_computed_cosine(self):
        a = network({"x": 3, "y": 4}, {(0, 1): 1})
        b = network({"x": 4, "y": 3}, {(0, 1): 1})
        assert weighted_profile_similarity(a, b) == pytest.approx(24 / 25)

    def test_zero_vector_rejected(self):
        a = network({"x": 3}, {})
        with pytest.raises(ValueError):
            weighted_profile_similarity(a, network({}, {}))


class TestTripletReport:
    def test_identical_networks_tie_reports_false(self):
        net = network({"a": 2, "b": 3}, {(0, 1): 1})
        report = triplet_report(net, net, net)
        assert report.jaccard["cited"]["context"] == 1.0
        assert report.ordering_holds == {"jaccard": False, "cosine": False}

    def test_diagonal_and_symmetry(self):
        cited = network({"a": 2, "b": 3}, {(0, 1): 1})
        citing = network({"b": 1, "c": 4}, {(0, 1): 1})
        context = network({"a": 1, "c": 2}, {(0, 1): 1})
        report = triplet_report(cited, citing, context)
        for label in ("cited", "citing", "context"):
            assert report.jaccard[label][label] == 1.0
            assert report.cosine[label][label] == 1.0
        for metric in (report.jaccard, report.cosine):
            for a in metric:
                for b in metric[a]:
                    assert metric[a][b] == metric[b][a]
                    assert 0.0 <= metric[a][b] <= 1.0

    def test_disjoint_cited_context_cannot_hold(self):
        cited = network({"a": 1, "b": 1}, {(0, 1): 1})
        citing = network({"c": 1, "d": 1}, {(0, 1): 1})
        context = network({"c": 2, "e": 1}, {(0, 1): 1})
        report = triplet_report(cited, citing, context)
        assert report.jaccard["cited"]["context"] == 0.0
        assert not report.ordering_holds["jaccard"]

    def test_planted_construction_forces_ordering(self):
        # contexts reuse the cited vocabulary; citing vocabulary mostly disjoint
        cited = network({"alpha": 4, "beta": 3, "gamma": 2}, {(0, 1): 1, (1, 2): 1})
        context = network({"alpha": 5, "beta": 2, "delta": 1}, {(0, 1): 1, (1, 2): 1})
        citing = network({"epsilon": 4, "zeta": 3, "alpha": 1}, {(0, 1): 1, (1, 2): 1})
        report = triplet_report(cited, citing, context)
        assert report.ordering_holds == {"jaccard": True, "cosine": True}
        # verify against direct metric computation
        assert report.jaccard["cited"]["context"] == pytest.approx(term_set_similarity(cited, context))
        assert report.cosine["citing"]["context"] == pytest.approx(weighted_profile_similarity(citing, context))

    def test_shared_terms_listed_per_pair(self):
        cited = network({"a": 1, "b": 1}, {(0, 1): 1})
        citing = network({"b": 1, "c": 1}, {(0, 1): 1})
        context = network({"a": 1, "c": 1}, {(0, 1): 1})
        report = triplet_report(cited, citing, context)
        assert report.shared_terms["cited|citing"] == ("b",)
        assert report.shared_terms["cited|context"] == ("a",)
        assert report.shared_terms["citing|context"] == ("c",)

    def test_empty_network_rejected(self):
        net = network({"a": 1}, {})
        with pytest.raises(ValueError, match="citing"):
            triplet_report(net, network({}, {}), net)

    def test_label_permutation_permutes_matrices(self):
        nets = {
            "cited": network({"a": 2, "b": 3}, {(0, 1): 1}),
            "citing": network({"b": 1, "c": 4}, {(0, 1): 1}),
            "context": network({"a": 1, "c": 2}, {(0, 1): 1}),
        }
        base = triplet_report(nets["cited"], nets["citing"], nets["context"])
        swapped = triplet_report(nets["citing"], nets["cited"], nets["context"])
        assert swapped.jaccard["cited"]["context"] == base.jaccard["citing"]["context"]
        assert swapped.cosine["citing"]["context"] == base.cosine["cited"]["context"]

    def test_json_serialization_shape(self, tmp_path):
        net = network({"a": 2, "b": 3}, {(0, 1): 1})
        write_json(tmp_path / "comparison.json", asdict(triplet_report(net, net, net)))
        payload = json.loads((tmp_path / "comparison.json").read_text(encoding="utf-8"))
        assert set(payload) == {"jaccard", "cosine", "ordering_holds", "shared_terms"}
        assert set(payload["jaccard"]) == {"cited", "citing", "context"}
        assert payload["ordering_holds"] == {"jaccard": False, "cosine": False}
        assert payload["shared_terms"]["cited|context"] == ["a", "b"]
