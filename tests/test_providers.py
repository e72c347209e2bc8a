"""GraphProvider contract: pagination, retries, dedup, ordinals."""

from __future__ import annotations

import json
import warnings

import pytest
import requests

from citemap.corpus import Document, dataset_stats, write_corpus
from citemap.errors import CitemapWarning, ConfigError, ResponseError, TransportError
from citemap.providers import (
    FileProvider,
    GraphProvider,
    HttpProvider,
    ProviderSpec,
    fetch_citing_with_contexts,
    fetch_publications,
)

from conftest import ctx, doc


class ScriptedProvider(GraphProvider):
    """Plays back fixed record lists and counts page requests."""

    def __init__(self, publications=(), citing=None, contexts=None, fail_first=0):
        self.publications = list(publications)
        self.citing = dict(citing or {})
        self.contexts = dict(contexts or {})
        self.requests = 0
        self.failures_left = fail_first

    def _page(self, records, count, offset):
        self.requests += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise TransportError("scripted outage")
        return records[offset:offset + count]

    def publications_page(self, query, count, offset):
        return self._page(self.publications, count, offset)

    def citing_page(self, cited_id, count, offset):
        return self._page(self.citing.get(cited_id, []), count, offset)

    def contexts_page(self, cited_id, count, offset):
        return self._page(self.contexts.get(cited_id, []), count, offset)


def no_sleep(_seconds):
    return None


class TestFetchPublications:
    def test_empty_result(self):
        provider = ScriptedProvider()
        result = fetch_publications(provider, "author=nobody", page_size=3, sleep=no_sleep)
        assert len(result) == 0
        assert provider.requests == 1

    def test_pagination_until_short_page(self):
        provider = ScriptedProvider([doc(f"p{k}") for k in range(7)])
        result = fetch_publications(provider, "q", page_size=3, sleep=no_sleep)
        assert len(result) == 7
        assert provider.requests == 3  # pages of 3, 3, 1

    def test_duplicate_across_pages_deduplicated(self):
        records = [doc(f"p{k}") for k in range(6)]
        records.insert(4, doc("p1", title="again"))  # 7 records, one repeated id
        provider = ScriptedProvider(records)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fetch_publications(provider, "q", page_size=3, sleep=no_sleep)
        assert len(result) == 6
        assert sum(issubclass(w.category, CitemapWarning) for w in caught) == 1
        assert result.get("p1").title != "again"  # first wins

    def test_bad_page_size(self):
        with pytest.raises(ConfigError):
            fetch_publications(ScriptedProvider(), "q", page_size=0, sleep=no_sleep)

    def test_retries_then_succeeds(self):
        provider = ScriptedProvider([doc("p0")], fail_first=2)
        delays = []
        result = fetch_publications(provider, "q", page_size=5, sleep=delays.append)
        assert len(result) == 1
        assert delays == [1.0, 2.0]  # exponential backoff from 1 s

    def test_retries_exhausted(self):
        provider = ScriptedProvider([doc("p0")], fail_first=3)
        with pytest.raises(TransportError):
            fetch_publications(provider, "q", page_size=5, sleep=no_sleep)

    def test_idempotent_against_fixed_provider(self):
        records = [doc(f"p{k}") for k in range(5)]
        first = fetch_publications(ScriptedProvider(records), "q", page_size=2, sleep=no_sleep)
        second = fetch_publications(ScriptedProvider(records), "q", page_size=2, sleep=no_sleep)
        assert list(first) == list(second)


class TestFetchCitingWithContexts:
    def test_no_citers(self):
        citing, contexts = fetch_citing_with_contexts(ScriptedProvider(), ["lonely"], sleep=no_sleep)
        assert len(citing) == 0 and contexts == []

    def test_empty_cited_ids_rejected(self):
        with pytest.raises(ConfigError):
            fetch_citing_with_contexts(ScriptedProvider(), [], sleep=no_sleep)

    def test_multiple_citations_get_ordinals(self):
        provider = ScriptedProvider(
            citing={"target": [doc("citer", "citing")]},
            contexts={"target": [("citer", "first mention"), ("citer", "second mention")]},
        )
        citing, contexts = fetch_citing_with_contexts(provider, ["target"], sleep=no_sleep)
        assert len(citing) == 1
        assert [(c.ordinal, c.text) for c in contexts] == [(1, "first mention"), (2, "second mention")]

    def test_citing_documents_tagged(self):
        provider = ScriptedProvider(
            citing={"t": [doc("citer", "cited")]},  # provider mislabels; op re-tags
            contexts={"t": [("citer", "snippet")]},
        )
        citing, _ = fetch_citing_with_contexts(provider, ["t"], sleep=no_sleep)
        assert citing.get("citer").set_tag == "citing"

    def test_blank_contexts_dropped_and_counted(self):
        provider = ScriptedProvider(
            citing={"t": [doc("citer", "citing")]},
            contexts={"t": [("citer", "  "), ("citer", "good")]},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, contexts = fetch_citing_with_contexts(provider, ["t"], sleep=no_sleep)
        assert [c.text for c in contexts] == ["good"]
        assert any("blank" in str(w.message) for w in caught)

    def test_context_without_citing_document_dropped(self):
        provider = ScriptedProvider(
            citing={"t": [doc("citer", "citing")]},
            contexts={"t": [("citer", "ok"), ("stranger", "who is this")]},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            citing, contexts = fetch_citing_with_contexts(provider, ["t"], sleep=no_sleep)
        assert {c.citing_id for c in contexts} <= set(citing.ids())
        assert any("citing document" in str(w.message) for w in caught)

    def test_reference_scale_totals(self):
        # 59 cited / 343 citing / 428 contexts, echoed by CorpusStats
        cited_ids = [f"c{k}" for k in range(59)]
        citing_docs = {cid: [] for cid in cited_ids}
        context_map = {cid: [] for cid in cited_ids}
        for k in range(343):
            target = cited_ids[k % 59]
            citing_docs[target].append(doc(f"r{k}", "citing"))
            context_map[target].append((f"r{k}", f"context {k}"))
        for k in range(428 - 343):  # extra snippets: repeat citations
            target = cited_ids[k % 59]
            context_map[target].append((f"r{k}", f"repeat {k}"))
        provider = ScriptedProvider(citing=citing_docs, contexts=context_map)
        citing, contexts = fetch_citing_with_contexts(provider, cited_ids, sleep=no_sleep)
        from citemap.corpus import DocumentSet
        cited = DocumentSet([doc(cid) for cid in cited_ids])
        stats = dataset_stats(cited, citing, contexts)
        assert (stats.n_cited, stats.n_citing, stats.n_contexts) == (59, 343, 428)


class FakeResponse:
    def __init__(self, payload, status_code=200):
        self._payload = payload
        self.status_code = status_code
        self.text = payload if isinstance(payload, str) else json.dumps(payload)

    def json(self):
        if isinstance(self._payload, str):
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append({"url": url, "params": dict(params), "headers": dict(headers or {})})
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


SPEC = ProviderSpec(
    base_url="https://catalog.example/v1",
    entities_path="payload.entities",
    id_field="ref",
    title_field="meta.name",
    abstract_field="meta.summary",
    doi_field="meta.doi",
    year_field="meta.year",
    contexts_field="snippets",
    citing_query="cites:{cited_id}",
)


def entity(ref, name, cited_with=None):
    return {
        "ref": ref,
        "meta": {"name": name, "summary": None, "doi": None, "year": 2001},
        "snippets": cited_with or {},
    }


class TestHttpProvider:
    def test_publications_page_parses_field_paths(self):
        session = FakeSession([FakeResponse({"payload": {"entities": [entity("e1", "Title one")]}})])
        provider = HttpProvider(SPEC, session=session)
        page = provider.publications_page("author=x", 10, 0)
        assert page == [Document(id="e1", title="Title one", set_tag="cited", year=2001)]
        call = session.calls[0]
        assert call["url"] == "https://catalog.example/v1/evaluate"
        assert call["params"] == {"expr": "author=x", "attributes": "", "count": 10, "offset": 0}

    def test_citing_query_template(self):
        session = FakeSession([FakeResponse({"payload": {"entities": []}})])
        HttpProvider(SPEC, session=session).citing_page("c9", 5, 0)
        assert session.calls[0]["params"]["expr"] == "cites:c9"

    def test_contexts_extracted_from_citing_entities(self):
        payload = {"payload": {"entities": [
            entity("r1", "Citer", cited_with={"c9": ["first", "second"]}),
            entity("r2", "Other", cited_with={"other": ["not ours"]}),
        ]}}
        session = FakeSession([FakeResponse(payload)])
        pairs = HttpProvider(SPEC, session=session).contexts_page("c9", 10, 0)
        assert pairs == [("r1", "first"), ("r1", "second")]

    def test_transport_error_wrapped(self):
        session = FakeSession([requests.ConnectionError("boom")])
        with pytest.raises(TransportError):
            HttpProvider(SPEC, session=session).publications_page("q", 5, 0)

    def test_http_error_is_response_error(self):
        session = FakeSession([FakeResponse("service down", status_code=503)])
        with pytest.raises(ResponseError, match="503"):
            HttpProvider(SPEC, session=session).publications_page("q", 5, 0)

    def test_non_json_body_reports_excerpt(self):
        session = FakeSession([FakeResponse("<html>oops</html>")])
        with pytest.raises(ResponseError, match="oops"):
            HttpProvider(SPEC, session=session).publications_page("q", 5, 0)

    @pytest.mark.parametrize("meta", [{"summary": 5}, {"doi": 10.1}, {"name": {"en": "Title one"}}, {"name": 0},
                                      {"year": 2001.9}, {"year": True}, {"year": "2001"}])
    def test_field_of_wrong_type_is_response_error(self, meta):
        field = {"summary": "abstract", "doi": "doi", "name": "title", "year": "year"}[next(iter(meta))]
        bad = entity("e1", "Title one")
        bad["meta"].update(meta)
        session = FakeSession([FakeResponse({"payload": {"entities": [bad]}})])
        with pytest.raises(ResponseError, match=f"unusable entity: {field} must be"):
            HttpProvider(SPEC, session=session).publications_page("q", 5, 0)

    def test_missing_title_is_empty_and_int_id_is_str(self):
        untitled = entity(7, None)
        session = FakeSession([FakeResponse({"payload": {"entities": [untitled]}})])
        page = HttpProvider(SPEC, session=session).publications_page("q", 5, 0)
        assert page == [Document(id="7", title="", set_tag="cited", year=2001)]

    @pytest.mark.parametrize("ref", [None, "", True, 1.5, {"id": "e1"}], ids=repr)
    @pytest.mark.parametrize("page", ["publications_page", "contexts_page"])
    def test_unusable_id_is_response_error(self, ref, page):
        bad = entity(ref, "Title one", cited_with={"c9": ["a snippet"]})
        session = FakeSession([FakeResponse({"payload": {"entities": [bad]}})])
        with pytest.raises(ResponseError, match="id at 'ref'"):
            getattr(HttpProvider(SPEC, session=session), page)("c9", 5, 0)

    @pytest.mark.parametrize("snippets", [{"c9": ["a snippet", 7]}, {"c9": "a snippet"}, ["a snippet", None], 5],
                             ids=repr)
    def test_snippets_not_a_list_of_strings_is_response_error(self, snippets):
        session = FakeSession([FakeResponse({"payload": {"entities": [entity("r1", "Citer", cited_with=snippets)]}})])
        with pytest.raises(ResponseError, match="must be a list of strings"):
            HttpProvider(SPEC, session=session).contexts_page("c9", 5, 0)

    def test_contexts_take_int_id_and_plain_snippet_list(self):
        session = FakeSession([FakeResponse({"payload": {"entities": [entity(7, "Citer", cited_with=["a", "b"])]}})])
        assert HttpProvider(SPEC, session=session).contexts_page("c9", 5, 0) == [("7", "a"), ("7", "b")]

    def test_missing_entities_array(self):
        session = FakeSession([FakeResponse({"payload": {"entities": {"not": "a list"}}})])
        with pytest.raises(ResponseError):
            HttpProvider(SPEC, session=session).publications_page("q", 5, 0)

    def test_api_key_header(self, monkeypatch):
        spec = ProviderSpec(base_url="https://x.example", api_key_env="CITEMAP_TEST_KEY", api_key_header="X-Key")
        monkeypatch.setenv("CITEMAP_TEST_KEY", "sekrit")
        session = FakeSession([FakeResponse({"entities": []})])
        HttpProvider(spec, session=session).publications_page("q", 5, 0)
        assert session.calls[0]["headers"]["X-Key"] == "sekrit"

    def test_missing_api_key_is_config_error(self, monkeypatch):
        spec = ProviderSpec(base_url="https://x.example", api_key_env="CITEMAP_TEST_KEY_MISSING")
        monkeypatch.delenv("CITEMAP_TEST_KEY_MISSING", raising=False)
        with pytest.raises(ConfigError):
            HttpProvider(spec, session=FakeSession([])).publications_page("q", 5, 0)

    def test_spec_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ProviderSpec.from_mapping({"base_url": "x", "nonsense": 1})

    @pytest.mark.parametrize("mapping", [5, [], "https://x.example", None], ids=repr)
    def test_spec_from_mapping_rejects_non_object(self, mapping):
        with pytest.raises(ConfigError, match="provider settings must be a JSON object"):
            ProviderSpec.from_mapping(mapping)

    @pytest.mark.parametrize("setting", [
        {"base_url": 5},
        {"timeout": "x"},
        {"timeout": True},
        {"timeout": None},
        {"api_key_env": 3},
        {"entities_path": None},
        {"citing_query": ["citedBy={cited_id}"]},
    ], ids=lambda setting: f"{next(iter(setting))}={next(iter(setting.values()))!r}")
    def test_spec_from_mapping_rejects_value_of_wrong_type(self, setting):
        name = next(iter(setting))
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            ProviderSpec.from_mapping({"base_url": "https://x.example", **setting})

    @pytest.mark.parametrize("timeout", [0, 0.0, -1, -0.5, float("nan"), float("inf"), 10**400],
                             ids=["0", "0.0", "-1", "-0.5", "nan", "inf", "10**400"])
    def test_spec_from_mapping_rejects_timeout_out_of_range(self, timeout):
        with pytest.raises(ConfigError, match="^timeout must be finite and > 0"):
            ProviderSpec.from_mapping({"base_url": "https://x.example", "timeout": timeout})

    def test_spec_takes_int_timeout_and_null_key_env(self):
        spec = ProviderSpec.from_mapping({"base_url": "https://x.example", "timeout": 5, "api_key_env": None})
        assert spec.timeout == 5 and spec.api_key_env is None


class TestFileProvider:
    @pytest.fixture()
    def dump(self, tmp_path):
        from citemap.corpus import DocumentSet
        docs = DocumentSet([
            doc("c1", "cited", "Cited one", year=1990),
            doc("c2", "cited", "Cited two", year=1991),
            doc("r1", "citing", "Citer one"),
            doc("r2", "citing", "Citer two"),
        ])
        contexts = [
            ctx("r1", "c1", "r1 cites c1"),
            ctx("r2", "c1", "r2 cites c1"),
            ctx("r2", "c1", "r2 cites c1 again", ordinal=2),
            ctx("r2", "c2", "r2 cites c2"),
        ]
        return write_corpus(tmp_path / "dump.jsonl", docs, contexts)

    def test_query_filters(self, dump):
        provider = FileProvider(dump)
        assert [d.id for d in provider.publications_page("set_tag=cited", 10, 0)] == ["c1", "c2"]
        assert [d.id for d in provider.publications_page("year=1991", 10, 0)] == ["c2"]
        assert len(provider.publications_page("", 10, 0)) == 4

    def test_bad_query_rejected(self, dump):
        provider = FileProvider(dump)
        with pytest.raises(ConfigError):
            provider.publications_page("venue=nope", 10, 0)

    def test_citing_and_contexts_linked_through_dump(self, dump):
        provider = FileProvider(dump)
        citing, contexts = fetch_citing_with_contexts(provider, ["c1", "c2"], page_size=2, sleep=no_sleep)
        assert set(citing.ids()) == {"r1", "r2"}
        assert all(d.set_tag == "citing" for d in citing)
        pair_ordinals = [(c.citing_id, c.cited_id, c.ordinal) for c in contexts]
        assert ("r2", "c1", 1) in pair_ordinals and ("r2", "c1", 2) in pair_ordinals
        assert len(contexts) == 4
