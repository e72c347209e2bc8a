"""Pluggable acquisition of documents and citation contexts.

No subcommand uses this module: a run reads its corpus from the JSONL dump
(see corpus), and this library module is due to be deleted. GraphProvider
fixes three paged fetch capabilities: publications matching a query
expression, publications citing a given id, and the context snippets around
those citations. Two concrete providers ship here: HttpProvider adapts a
REST catalog whose field layout is supplied as configuration, and
FileProvider replays a local corpus dump.
The module-level fetch operations own pagination, retries, deduplication,
and ordinal assignment, so every provider stays a thin page server.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import requests

from .corpus import CitationContext, Document, DocumentSet, load_corpus
from .errors import CitemapWarning, ConfigError, ResponseError, TransportError, check_settings

RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 1.0  # seconds; doubles per attempt


class GraphProvider(ABC):
    """Page server for an academic graph.

    All three methods page over their own record type with (count, offset);
    a page shorter than ``count`` means the listing is exhausted.
    """

    @abstractmethod
    def publications_page(self, query: str, count: int, offset: int) -> list[Document]:
        """One page of documents matching an entity/author query expression."""

    @abstractmethod
    def citing_page(self, cited_id: str, count: int, offset: int) -> list[Document]:
        """One page of documents citing ``cited_id``."""

    @abstractmethod
    def contexts_page(self, cited_id: str, count: int, offset: int) -> list[tuple[str, str]]:
        """One page of ``(citing_id, snippet)`` pairs for ``cited_id``."""


def _with_retries(call: Callable[[], object], sleep: Callable[[float], None]):
    for attempt in range(RETRY_ATTEMPTS):
        try:
            return call()
        except TransportError:
            if attempt == RETRY_ATTEMPTS - 1:
                raise
            sleep(RETRY_BASE_DELAY * (2 ** attempt))


def fetch_publications(
    provider: GraphProvider,
    query: str,
    page_size: int,
    sleep: Callable[[float], None] = time.sleep,
) -> DocumentSet:
    """Fetch all documents matching ``query``, deduplicated first-wins.

    Pages with (count, offset) until a short page arrives. Transport
    failures are retried with exponential backoff (3 attempts).
    """
    if page_size < 1:
        raise ConfigError(f"page_size must be >= 1, got {page_size}")
    result = DocumentSet()
    offset = 0
    while True:
        page = _with_retries(lambda: provider.publications_page(query, page_size, offset), sleep)
        for doc in page:
            if not result.add(doc):
                warnings.warn(f"duplicate document id {doc.id!r} from provider ignored", CitemapWarning, stacklevel=2)
        if len(page) < page_size:
            return result
        offset += page_size


def fetch_citing_with_contexts(
    provider: GraphProvider,
    cited_ids: Sequence[str],
    page_size: int = 100,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[DocumentSet, list[CitationContext]]:
    """Fetch documents citing any of ``cited_ids`` plus their context snippets.

    Citing documents are tagged ``citing`` and deduplicated across cited ids.
    Blank snippets are dropped (counted in one warning); ordinals number the
    snippets per (citing_id, cited_id) pair in provider order. Every returned
    context has its citing document present in the returned set.
    """
    if not cited_ids:
        raise ConfigError("cited_ids must be non-empty")
    citing = DocumentSet()
    contexts: list[CitationContext] = []
    blank_dropped = 0
    for cited_id in cited_ids:
        offset = 0
        while True:
            page = _with_retries(lambda: provider.citing_page(cited_id, page_size, offset), sleep)
            for doc in page:
                citing.add(replace(doc, set_tag="citing"))
            if len(page) < page_size:
                break
            offset += page_size
        ordinals: defaultdict[tuple[str, str], int] = defaultdict(int)
        offset = 0
        while True:
            pairs = _with_retries(lambda: provider.contexts_page(cited_id, page_size, offset), sleep)
            for citing_id, text in pairs:
                if not text.strip():
                    blank_dropped += 1
                    continue
                ordinals[(citing_id, cited_id)] += 1
                contexts.append(CitationContext(citing_id, cited_id, text, ordinals[(citing_id, cited_id)]))
            if len(pairs) < page_size:
                break
            offset += page_size
    if blank_dropped:
        warnings.warn(f"dropped {blank_dropped} blank context snippet(s)", CitemapWarning, stacklevel=2)
    kept, dangling = [], 0
    for ctx in contexts:
        if ctx.citing_id in citing:
            kept.append(ctx)
        else:
            dangling += 1
    if dangling:
        warnings.warn(f"dropped {dangling} context(s) whose citing document was not retrieved", CitemapWarning, stacklevel=2)
    return citing, kept


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

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ProviderSpec":
        if not isinstance(mapping, dict):
            raise ConfigError(f"provider settings must be a JSON object, got {mapping!r}")
        check_settings(cls, mapping, "provider settings")
        if "base_url" not in mapping:
            raise ConfigError("provider settings must include base_url")
        # nan fails the comparison, and so does an int too large for a float
        if "timeout" in mapping and not 0 < mapping["timeout"] <= sys.float_info.max:
            raise ConfigError(f"timeout must be finite and > 0, got {mapping['timeout']!r}")
        return cls(**mapping)


def _dig(obj: object, dotted: str):
    for key in dotted.split("."):
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj


class HttpProvider(GraphProvider):
    """GraphProvider over a GET ``{base}/evaluate`` endpoint.

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


def _matches(doc: Document, query: str) -> bool:
    query = query.strip()
    if not query:
        return True
    if "=" not in query:
        raise ConfigError(f"file provider queries look like 'field=value', got {query!r}")
    field, _, value = query.partition("=")
    field = field.strip()
    if field not in ("id", "doi", "title", "set_tag", "year"):
        raise ConfigError(f"unknown query field {field!r}")
    actual = getattr(doc, field)
    return str(actual) == value.strip()


class FileProvider(GraphProvider):
    """Serves a corpus dump file as if it were a remote catalog.

    Queries use a single ``field=value`` clause (empty matches everything);
    citing documents and contexts are linked through the dump's context
    records.
    """

    def __init__(self, path: str | Path):
        self._docs, self._contexts = load_corpus(path)

    def publications_page(self, query: str, count: int, offset: int) -> list[Document]:
        matched = [d for d in self._docs if _matches(d, query)]
        return matched[offset:offset + count]

    def citing_page(self, cited_id: str, count: int, offset: int) -> list[Document]:
        seen: dict[str, Document] = {}
        for ctx in self._contexts:
            if ctx.cited_id != cited_id or ctx.citing_id in seen:
                continue
            doc = self._docs.get(ctx.citing_id)
            if doc is not None:
                seen[ctx.citing_id] = doc
        docs = list(seen.values())
        return docs[offset:offset + count]

    def contexts_page(self, cited_id: str, count: int, offset: int) -> list[tuple[str, str]]:
        pairs = [(c.citing_id, c.text) for c in self._contexts if c.cited_id == cited_id]
        return pairs[offset:offset + count]
