"""Corpus model, JSONL loading, and dataset statistics."""

from __future__ import annotations

import copy
import hashlib
import json
import re
import warnings

import pytest

from citemap.cli import main
from citemap.corpus import (
    CitationContext,
    Document,
    check_field_types,
    dataset_stats,
    load_corpus,
    normalize_doi,
    write_corpus,
)
from citemap.errors import CitemapWarning, ConfigError, ConsistencyError, ParseError
from citemap.pipeline import PipelineConfig, Run
from citemap.terms import CITATION_CONTEXT, make_units

from conftest import ctx, doc


def write_lines(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


class TestDocument:
    def test_doi_normalized(self):
        d = doc("a", doi="https://doi.org/10.1000/XYZ.12")
        assert d.doi == "10.1000/xyz.12"

    @pytest.mark.parametrize("raw", ["10.1/x", "DOI:10.5/ABC", "http://dx.doi.org/10.9/q"])
    def test_doi_accepts_common_shapes(self, raw):
        assert doc("a", doi=raw).doi.startswith("10.")

    @pytest.mark.parametrize("raw", ["garbage", "11.1000/x", ""])
    def test_bad_doi_rejected(self, raw):
        with pytest.raises(ValueError):
            doc("a", doi=raw)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Document(id="", title="t", set_tag="cited")

    def test_bad_set_tag_rejected(self):
        with pytest.raises(ValueError):
            Document(id="a", title="t", set_tag="reviewer")

    @pytest.mark.parametrize("fields", [
        {"id": 5}, {"title": 5}, {"title": None}, {"set_tag": None}, {"doi": 10.1}, {"abstract": ["text"]},
        {"year": "1999"}, {"year": 1999.0}, {"year": True},
    ])
    def test_field_types_checked(self, fields):
        with pytest.raises(TypeError, match=f"^{next(iter(fields))} must be"):
            Document(**{"id": "a", "title": "t", "set_tag": "cited", **fields})

    def test_optional_fields_take_none(self):
        d = Document(id="a", title="t", set_tag="cited", doi=None, abstract=None, year=None)
        assert (d.doi, d.abstract, d.year) == (None, None, None)

    @pytest.mark.parametrize("raw", ["doi: 10.1002/asi.21075", "https://doi.org/ 10.1002/ASI.21075"])
    def test_space_after_prefix_stripped(self, raw):
        assert normalize_doi(raw) == "10.1002/asi.21075"
        assert doc("a", doi=raw).doi == "10.1002/asi.21075"

    def test_normalize_doi_blank(self):
        assert normalize_doi("   ") is None
        assert normalize_doi(None) is None


class TestCitationContext:
    def test_text_trimmed(self):
        c = CitationContext("a", "b", "  snippet \n")
        assert c.text == "snippet"

    def test_blank_text_rejected(self):
        with pytest.raises(ValueError):
            CitationContext("a", "b", "   ")

    def test_ordinal_must_be_positive(self):
        with pytest.raises(ValueError):
            CitationContext("a", "b", "x", ordinal=0)

    @pytest.mark.parametrize("fields", [
        {"text": 5}, {"citing_id": 7}, {"cited_id": None}, {"ordinal": 1.0}, {"ordinal": True}, {"ordinal": None},
    ])
    def test_field_types_checked(self, fields):
        with pytest.raises(TypeError, match=f"^{next(iter(fields))} must be"):
            CitationContext(**{"citing_id": "a", "cited_id": "b", "text": "x", **fields})


class TestFieldTypes:
    @pytest.mark.parametrize("record", [doc("a"), ctx("r", "c"), PipelineConfig()], ids=lambda r: type(r).__name__)
    def test_every_annotation_is_checked(self, record):
        # a field whose annotation check_field_types does not know fails here, not in a user's run
        check_field_types(record)
        for name, spec in record.__dataclass_fields__.items():
            wrong = copy.copy(record)
            object.__setattr__(wrong, name, object())
            with pytest.raises(TypeError, match=rf"^{name} must be {re.escape(spec.type)}, got <object"):
                check_field_types(wrong)

    def test_bool_refused_for_year_and_ordinal(self):
        with pytest.raises(TypeError, match=r"^year must be int \| None, got True$"):
            doc("a", year=True)
        with pytest.raises(TypeError, match="^ordinal must be int, got True$"):
            ctx("r", "c", ordinal=True)

    def test_bool_refused_for_seed(self):
        with pytest.raises(ConfigError, match="^seed must be int, got True$"):
            PipelineConfig.from_mapping({"seed": True})
        with pytest.raises(ConfigError, match="^seed must be int, got True$"):
            PipelineConfig(seed=True).validate()  # a config built in code is checked too


class TestContextIdentity:
    def test_key_and_name(self):
        c = ctx("r", "c", ordinal=2)
        assert c.key == ("r", "c", 2)
        assert str(c) == "('r' -> 'c' #2)"

    def test_load_and_units_name_a_repeated_context_alike(self, tmp_path):
        # the ids hold a quote, an arrow and a hash; both messages must print the one name str(ctx) gives
        repeated = ctx("o'hara -> x", "#1 'c'", "snippet", ordinal=3)
        path = tmp_path / "repeated.jsonl"
        write_lines(path, [{"kind": "context", "citing_id": repeated.citing_id, "cited_id": repeated.cited_id,
                            "text": "snippet", "ordinal": 3}] * 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_corpus(path)
        duplicate, *dangling = [str(w.message) for w in caught]
        assert duplicate == f"{path}:2: duplicate context {repeated} ignored"
        assert dangling == [f"{path}:1: context {repeated} references unknown document(s) "
                            f"{[repeated.citing_id, repeated.cited_id]}"]
        with pytest.raises(ConsistencyError) as raised:
            make_units([repeated, repeated], CITATION_CONTEXT)
        assert str(raised.value) == f"duplicate context {repeated}"
        assert str(repeated) == """("o'hara -> x" -> "#1 'c'" #3)"""


class TestDocumentSet:
    """The documents load_corpus returns: a tuple in file order, one per id."""

    def test_insertion_order_kept(self, tmp_path):
        path = write_corpus(tmp_path / "order.jsonl", (doc("b"), doc("a"), doc("c")), [])
        docs, _ = load_corpus(path)
        assert tuple(d.id for d in docs) == ("b", "a", "c")

    def test_first_wins_on_add(self, tmp_path):
        path = tmp_path / "first.jsonl"
        write_lines(path, [
            {"kind": "document", "id": "a", "title": "first", "set_tag": "cited"},
            {"kind": "document", "id": "a", "title": "second", "set_tag": "cited"},
        ])
        with pytest.warns(CitemapWarning, match="duplicate document id 'a' ignored"):
            docs, _ = load_corpus(path)
        assert [d.title for d in docs] == ["first"]


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        docs, contexts = load_corpus(path)
        assert docs == () and contexts == []

    def test_documents_and_context(self, tmp_path):
        path = tmp_path / "mini.jsonl"
        write_lines(path, [
            {"kind": "document", "id": "a", "title": "One", "set_tag": "cited"},
            {"kind": "document", "id": "b", "title": "Two", "set_tag": "citing"},
            {"kind": "context", "citing_id": "b", "cited_id": "a", "text": "around the citation", "ordinal": 1},
        ])
        docs, contexts = load_corpus(path)
        assert len(docs) == 2
        assert len(contexts) == 1
        assert contexts[0].citing_id == "b" and contexts[0].cited_id == "a"

    def test_space_after_doi_prefix_loads(self, tmp_path):
        path = tmp_path / "spaced_doi.jsonl"
        write_lines(path, [
            {"kind": "document", "id": "a", "title": "One", "set_tag": "cited", "doi": "doi: 10.1002/asi.21075"},
            {"kind": "document", "id": "b", "title": "Two", "set_tag": "citing", "doi": "https://doi.org/ 10.1/x"},
        ])
        docs, _ = load_corpus(path)
        assert [d.doi for d in docs] == ["10.1002/asi.21075", "10.1/x"]

    def test_dangling_reference_warns_once(self, tmp_path):
        path = tmp_path / "dangling.jsonl"
        write_lines(path, [
            {"kind": "document", "id": "b", "title": "Two", "set_tag": "citing"},
            {"kind": "context", "citing_id": "b", "cited_id": "ghost", "text": "snippet", "ordinal": 1},
        ])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            docs, contexts = load_corpus(path)
        assert len(contexts) == 1  # warning, not fatal
        assert sum(issubclass(w.category, CitemapWarning) for w in caught) == 1

    def test_duplicate_id_first_wins_and_warns(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_lines(path, [
            {"kind": "document", "id": "b", "title": "First", "set_tag": "cited"},
            {"kind": "document", "id": "a", "title": "One", "set_tag": "citing"},
            {"kind": "document", "id": "b", "title": "Second", "set_tag": "citing"},
            {"kind": "document", "id": "c", "title": "Two", "set_tag": "cited"},
        ])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            docs, _ = load_corpus(path)
        assert type(docs) is tuple  # in file order, without the later duplicate
        assert [(d.id, d.title, d.set_tag) for d in docs] == [("b", "First", "cited"), ("a", "One", "citing"),
                                                              ("c", "Two", "cited")]
        assert [str(w.message) for w in caught] == [f"{path}:3: duplicate document id 'b' ignored"]
        assert all(issubclass(w.category, CitemapWarning) for w in caught)

    def test_duplicate_context_first_wins_and_warns(self, tmp_path):
        path = tmp_path / "dupctx.jsonl"
        write_lines(path, [
            {"kind": "document", "id": "a", "title": "One", "set_tag": "cited"},
            {"kind": "document", "id": "b", "title": "Two", "set_tag": "citing"},
            {"kind": "context", "citing_id": "b", "cited_id": "a", "text": "first", "ordinal": 1},
            {"kind": "context", "citing_id": "b", "cited_id": "a", "text": "again", "ordinal": 1},
            {"kind": "context", "citing_id": "b", "cited_id": "a", "text": "second", "ordinal": 2},
        ])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, contexts = load_corpus(path)
        assert [(c.text, c.ordinal) for c in contexts] == [("first", 1), ("second", 2)]
        assert [str(w.message) for w in caught] == [f"{path}:4: duplicate context ('b' -> 'a' #1) ignored"]
        assert all(issubclass(w.category, CitemapWarning) for w in caught)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "document", "id": "a", "title": "x", "set_tag": "cited"}\n{nope\n', encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:"):
            load_corpus(path)

    def test_byte_order_mark_is_skipped(self, demo_corpus, tmp_path):
        data = demo_corpus.read_bytes()
        marked = tmp_path / "bom.jsonl"
        marked.write_bytes(b"\xef\xbb\xbf" + data)
        assert load_corpus(marked) == load_corpus(demo_corpus)
        stats = {}
        for label, path in (("plain", demo_corpus), ("marked", marked)):
            assert main(["ingest", "--corpus", str(path), "--out", str(tmp_path / label)]) == 0
            stats[label] = (tmp_path / label / "corpus_stats.json").read_bytes()
        assert stats["marked"] == stats["plain"]
        # the digest is of the file's bytes, mark and all
        assert Run(PipelineConfig(corpus=str(marked))).corpus_digest == hashlib.sha256(marked.read_bytes()).hexdigest()

    @pytest.mark.parametrize("record", [
        {"kind": "context", "citing_id": "a", "cited_id": "a", "text": 5},
        {"kind": "context", "citing_id": "a", "cited_id": "a", "text": "s", "ordinal": "2"},
        {"kind": "document", "id": "b", "title": 5, "set_tag": "cited"},
        {"kind": "document", "id": "b", "title": "t", "set_tag": "cited", "year": False},
    ])
    def test_field_of_wrong_type_names_line(self, tmp_path, record):
        path = tmp_path / "typed.jsonl"
        write_lines(path, [{"kind": "document", "id": "a", "title": "One", "set_tag": "cited"}, record])
        with pytest.raises(ParseError, match=r":2: \w+ must be"):
            load_corpus(path)
        out = tmp_path / "out"
        assert main(["ingest", "--corpus", str(path), "--out", str(out)]) == 3
        assert main(["extract", "--corpus", str(path), "--out", str(out)]) == 3
        assert not out.exists()

    def test_null_title_loads_as_empty(self, tmp_path):
        path = tmp_path / "null.jsonl"
        write_lines(path, [{"kind": "document", "id": "a", "title": None, "set_tag": "cited"}])
        docs, _ = load_corpus(path)
        assert [(d.id, d.title) for d in docs] == [("a", "")]

    def test_unknown_kind_names_line(self, tmp_path):
        path = tmp_path / "kind.jsonl"
        write_lines(path, [{"kind": "mystery"}])
        with pytest.raises(ParseError, match=r":1:"):
            load_corpus(path)

    def test_deterministic(self, tmp_path):
        path = tmp_path / "same.jsonl"
        write_lines(path, [
            {"kind": "document", "id": "a", "title": "One", "set_tag": "cited"},
            {"kind": "document", "id": "b", "title": "Two", "set_tag": "citing"},
            {"kind": "context", "citing_id": "b", "cited_id": "a", "text": "s", "ordinal": 1},
        ])
        first = load_corpus(path)
        second = load_corpus(path)
        assert first == second

    def test_round_trip_via_writer(self, tmp_path):
        docs = (doc("a", "cited", "One", doi="10.1/x", abstract="text", year=1999), doc("b", "citing", "Two"))
        contexts = [ctx("b", "a", "context snippet", 1)]
        path = write_corpus(tmp_path / "rt.jsonl", docs, contexts)
        docs2, contexts2 = load_corpus(path)
        assert docs2 == docs
        assert contexts2 == contexts


class TestDatasetStats:
    def test_disjoint_sets(self):
        cited = (doc("a"), doc("b"))
        citing = (doc("x", "citing"), doc("y", "citing"))
        assert dataset_stats(cited, citing, []).n_overlap == 0

    def test_two_shared_dois(self):
        cited = (doc("a", doi="10.1/one"), doc("b", doi="10.1/two"), doc("c"))
        citing = (
            doc("x", "citing", doi="10.1/one"),
            doc("y", "citing", doi="10.1/two"),
            doc("z", "citing", doi="10.1/three"),
        )
        assert dataset_stats(cited, citing, []).n_overlap == 2

    def test_id_fallback_when_doi_missing(self):
        cited = (doc("shared"),)
        citing = (doc("shared", "citing"),)
        assert dataset_stats(cited, citing, []).n_overlap == 1

    def test_histogram_sums_to_context_count(self):
        # 428 contexts spread over 343 citing docs against 59 cited docs
        cited = tuple(doc(f"c{k}") for k in range(59))
        citing = tuple(doc(f"r{k}", "citing") for k in range(343))
        contexts = []
        for k in range(428):
            contexts.append(ctx(f"r{k % 343}", f"c{k % 59}", f"snippet {k}", ordinal=k // 343 + 1))
        stats = dataset_stats(cited, citing, contexts)
        assert stats.n_contexts == 428
        assert sum(stats.contexts_per_cited.values()) == 428
        assert stats.n_cited == 59 and stats.n_citing == 343

    def test_overlap_matches_brute_force(self):
        cited = (
            doc("a", doi="10.1/same-id-different-doi"),
            doc("b", doi="10.1/b"),
            doc("c"),
            doc("d"),
        )
        citing = (
            doc("a", "citing", doi="10.1/conflicting"),  # same id, different DOI: DOI decides
            doc("b2", "citing", doi="10.1/b"),
            doc("c", "citing"),
            doc("e", "citing"),
        )
        def brute_force():
            hits = 0
            for u in cited:
                for v in citing:
                    if u.doi and v.doi:
                        if u.doi == v.doi:
                            hits += 1
                            break
                    elif u.id == v.id:
                        hits += 1
                        break
            return hits
        assert dataset_stats(cited, citing, []).n_overlap == brute_force() == 2
