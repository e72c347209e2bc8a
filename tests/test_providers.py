"""HttpProvider: request shape, field paths, and the errors an unusable response raises."""

from __future__ import annotations

import json

import pytest
import requests

from citemap.corpus import Document
from citemap.errors import ConfigError, ResponseError, TransportError
from citemap.providers import HttpProvider, ProviderSpec


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
