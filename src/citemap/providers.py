"""HTTP adapter for a REST catalog of documents and citation contexts.

No subcommand uses this module: a run reads its corpus from the JSONL dump
(see corpus). What is left here is HttpProvider, which serves three kinds of
page from a catalog whose field layout is given as a ProviderSpec; it is due
to be deleted with the rest of the module.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import requests

from .corpus import Document
from .errors import ConfigError, ResponseError, TransportError


@dataclass
class ProviderSpec:
    """Field layout and query templates for an HTTP catalog.

    ``*_field`` values are dotted paths into each entity object;
    ``contexts_field`` must point at an object mapping cited id -> list of
    snippet strings (or a plain list of snippets) on each citing entity.
    """

    base_url: str
    entities_path: str = "entities"
    id_field: str = "id"
    title_field: str = "title"
    abstract_field: str = "abstract"
    doi_field: str = "doi"
    year_field: str = "year"
    contexts_field: str = "contexts"
    citing_query: str = "citedBy={cited_id}"
    attributes: str = ""
    api_key_env: str | None = None
    api_key_header: str = "X-Api-Key"
    timeout: float = 30.0


def _dig(obj: object, dotted: str):
    for key in dotted.split("."):
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj


class HttpProvider:
    """Page server over a GET ``{base}/evaluate`` endpoint.

    Each ``*_page`` method pages over its own record type with (count,
    offset); a page shorter than ``count`` means the listing is exhausted.
    Requests carry ``expr``, ``attributes``, ``count``, ``offset`` query
    parameters and expect a JSON body holding an array of entity objects at
    ``spec.entities_path``. Only a static API-key header is supported.
    """

    def __init__(self, spec: ProviderSpec, session: requests.Session | None = None):
        self.spec = spec
        self._session = session or requests.Session()
        self._context_cache: dict[str, list[tuple[str, str]]] = {}

    def _headers(self) -> dict[str, str]:
        if not self.spec.api_key_env:
            return {}
        key = os.environ.get(self.spec.api_key_env)
        if not key:
            raise ConfigError(f"environment variable {self.spec.api_key_env} is not set")
        return {self.spec.api_key_header: key}

    def _entities(self, expr: str, count: int, offset: int) -> list[dict]:
        params = {"expr": expr, "attributes": self.spec.attributes, "count": count, "offset": offset}
        try:
            resp = self._session.get(
                self.spec.base_url.rstrip("/") + "/evaluate",
                params=params,
                headers=self._headers(),
                timeout=self.spec.timeout,
            )
        except (requests.ConnectionError, requests.Timeout) as exc:
            raise TransportError(f"GET {self.spec.base_url}/evaluate failed: {exc}") from exc
        if resp.status_code != 200:
            raise ResponseError(f"HTTP {resp.status_code} from provider: {resp.text[:200]!r}")
        try:
            payload = resp.json()
        except ValueError as exc:
            raise ResponseError(f"provider returned non-JSON body: {resp.text[:200]!r}") from exc
        entities = _dig(payload, self.spec.entities_path)
        if entities is None:
            entities = []
        if not isinstance(entities, list):
            raise ResponseError(f"no entity array at {self.spec.entities_path!r}: {json.dumps(payload)[:200]!r}")
        return entities

    def _entity_id(self, entity: dict) -> str:
        doc_id = _dig(entity, self.spec.id_field)
        if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)) or doc_id == "":
            raise ResponseError(f"entity id at {self.spec.id_field!r} must be a str or int: "
                                f"{json.dumps(entity)[:200]!r}")
        return str(doc_id)

    def _parse_document(self, entity: dict, set_tag: str) -> Document:
        doc_id = self._entity_id(entity)
        title = _dig(entity, self.spec.title_field)
        try:
            # values pass through unchanged, so Document's type checks see what the provider sent
            return Document(
                id=doc_id,
                title="" if title is None else title,
                set_tag=set_tag,
                doi=_dig(entity, self.spec.doi_field),
                abstract=_dig(entity, self.spec.abstract_field),
                year=_dig(entity, self.spec.year_field),
            )
        except (ValueError, TypeError) as exc:
            raise ResponseError(f"unusable entity: {exc}: {json.dumps(entity)[:200]!r}") from exc

    def publications_page(self, query: str, count: int, offset: int) -> list[Document]:
        return [self._parse_document(e, "cited") for e in self._entities(query, count, offset)]

    def citing_page(self, cited_id: str, count: int, offset: int) -> list[Document]:
        expr = self.spec.citing_query.format(cited_id=cited_id)
        return [self._parse_document(e, "citing") for e in self._entities(expr, count, offset)]

    def contexts_page(self, cited_id: str, count: int, offset: int) -> list[tuple[str, str]]:
        # Snippets ride on citing entities, so the full citing listing is
        # walked once per cited id and memoized before slicing.
        if cited_id not in self._context_cache:
            pairs: list[tuple[str, str]] = []
            expr = self.spec.citing_query.format(cited_id=cited_id)
            page_offset, page_size = 0, max(count, 50)
            while True:
                entities = self._entities(expr, page_size, page_offset)
                for entity in entities:
                    citing_id = self._entity_id(entity)
                    raw = _dig(entity, self.spec.contexts_field)
                    snippets = raw.get(str(cited_id), []) if isinstance(raw, dict) else [] if raw is None else raw
                    if not isinstance(snippets, list) or not all(isinstance(s, str) for s in snippets):
                        raise ResponseError(f"snippets at {self.spec.contexts_field!r} must be a list of strings: "
                                            f"{json.dumps(entity)[:200]!r}")
                    pairs.extend((citing_id, s) for s in snippets)
                if len(entities) < page_size:
                    break
                page_offset += page_size
            self._context_cache[cited_id] = pairs
        return self._context_cache[cited_id][offset:offset + count]
