"""Data model and persistence for scholarly documents and citation contexts.

Two kinds of records flow through the toolkit: documents (title/abstract
metadata of cited or citing papers) and citation contexts (the text snippet
around one in-text citation). Both are read from one JSONL dump, the only
input of a run; data from another source is converted to it outside the
package. Context snippets are taken as given; no re-segmentation is
attempted.

Dump format: UTF-8 JSONL, LF line endings. Each line is an object with
``"kind": "document"`` (fields: id, doi, title, abstract, year, set_tag) or
``"kind": "context"`` (fields: citing_id, cited_id, text, ordinal).
``load_corpus`` returns the documents as a tuple and the contexts as a list,
both in file order; a collection of documents is any sequence of them.

A field's type is its dataclass annotation, checked by ``check_field_types``.
A context's identity is ``CitationContext.key``, its name in messages ``str(ctx)``.
"""

from __future__ import annotations

import io
import json
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from types import NoneType
from typing import Iterable, Sequence

from .errors import CitemapWarning, ParseError

SET_TAGS = ("cited", "citing")

_DOI_PREFIXES = (
    "https://doi.org/",
    "http://doi.org/",
    "https://dx.doi.org/",
    "http://dx.doi.org/",
    "doi:",
)


def normalize_doi(raw: str | None) -> str | None:
    """Lowercase a DOI and strip URL/scheme prefixes and the whitespace around them.

    Blank input -> None.
    """
    if raw is None:
        return None
    doi = raw.strip().lower()
    for prefix in _DOI_PREFIXES:
        if doi.startswith(prefix):
            doi = doi[len(prefix):].lstrip()
            break
    return doi or None


# a field's annotation -> the types it accepts
_ANNOTATION_TYPES = {"str": (str,), "int": (int,), "float": (int, float),
                     "str | None": (str, NoneType), "int | None": (int, NoneType)}


def check_field_types(record: object) -> None:
    """TypeError unless each field of dataclass instance ``record`` fits its annotation; a bool fits none."""
    for name, spec in record.__dataclass_fields__.items():
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, _ANNOTATION_TYPES[spec.type]):
            raise TypeError(f"{name} must be {spec.type}, got {value!r}")


@dataclass(frozen=True)
class Document:
    """One scholarly record. The DOI is normalized at construction."""

    id: str
    title: str
    set_tag: str
    doi: str | None = None
    abstract: str | None = None
    year: int | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.id:
            raise ValueError("document id must be non-empty")
        if self.set_tag not in SET_TAGS:
            raise ValueError(f"set_tag must be one of {SET_TAGS}, got {self.set_tag!r}")
        if self.doi is not None:
            norm = normalize_doi(self.doi)
            if norm is None or not norm.startswith("10."):
                raise ValueError(f"invalid DOI {self.doi!r}: expected a '10.' prefix after normalization")
            object.__setattr__(self, "doi", norm)


@dataclass(frozen=True)
class CitationContext:
    """One text snippet around one citation of ``cited_id`` in ``citing_id``.

    Several contexts per (citing_id, cited_id) pair are legal; the ordinal
    (1-based) distinguishes them.
    """

    citing_id: str
    cited_id: str
    text: str
    ordinal: int = 1

    def __post_init__(self) -> None:
        check_field_types(self)
        stripped = self.text.strip()
        if not stripped:
            raise ValueError("context text must be non-empty after trimming")
        object.__setattr__(self, "text", stripped)
        if self.ordinal < 1:
            raise ValueError(f"ordinal must be >= 1, got {self.ordinal}")
        if not self.citing_id or not self.cited_id:
            raise ValueError("citing_id and cited_id must be non-empty")

    @property
    def key(self) -> tuple[str, str, int]:
        """The context's identity: two contexts with one key are duplicates."""
        return (self.citing_id, self.cited_id, self.ordinal)

    def __str__(self) -> str:
        return f"({self.citing_id!r} -> {self.cited_id!r} #{self.ordinal})"


@dataclass(frozen=True)
class CorpusStats:
    """Descriptive totals for a cited/citing corpus."""

    n_cited: int
    n_citing: int
    n_contexts: int
    n_overlap: int
    contexts_per_cited: dict[str, int]


def _document_from_record(record: dict) -> Document:
    fields = {name: record[name] for name in Document.__dataclass_fields__ if name in record}
    if fields.get("title") is None:
        fields["title"] = ""  # a dump may leave the title out or null
    return Document(**fields)


def _context_from_record(record: dict) -> CitationContext:
    return CitationContext(**{name: record[name] for name in CitationContext.__dataclass_fields__ if name in record})


def load_corpus(path: str | Path, data: bytes | None = None) -> tuple[tuple[Document, ...], list[CitationContext]]:
    """Parse a corpus dump and return ``(documents, contexts)``, a tuple and a list in file order.

    ``data`` is the dump's bytes, already read from ``path``; when None, the
    file is read here. Either way ``path`` names the dump in messages. A
    leading UTF-8 byte order mark is skipped.
    Duplicate document ids, and duplicate contexts (same citing_id, cited_id
    and ordinal), are deduplicated first-wins; duplicates and contexts
    referencing unknown documents each raise one CitemapWarning that starts
    ``<path>:<line>:``.
    A malformed line raises ParseError naming the line number.
    """
    path = Path(path)
    if data is None:
        data = path.read_bytes()
    docs: dict[str, Document] = {}
    contexts: list[CitationContext] = []
    context_lines: list[int] = []
    context_keys: set[tuple[str, str, int]] = set()
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as fh:  # a leading BOM is no part of line 1
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise ParseError(f"{path}:{lineno}: expected an object, got {type(record).__name__}")
            kind = record.get("kind")
            try:
                if kind == "document":
                    doc = _document_from_record(record)
                    if doc.id in docs:
                        warnings.warn(f"{path}:{lineno}: duplicate document id {doc.id!r} ignored", CitemapWarning, stacklevel=2)
                    else:
                        docs[doc.id] = doc
                elif kind == "context":
                    ctx = _context_from_record(record)
                    if ctx.key in context_keys:
                        warnings.warn(f"{path}:{lineno}: duplicate context {ctx} ignored", CitemapWarning, stacklevel=2)
                    else:
                        context_keys.add(ctx.key)
                        contexts.append(ctx)
                        context_lines.append(lineno)
                else:
                    raise ValueError(f"unknown kind {kind!r}")
            except (ValueError, TypeError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    for ctx, lineno in zip(contexts, context_lines):
        missing = [i for i in (ctx.citing_id, ctx.cited_id) if i not in docs]
        if missing:
            warnings.warn(f"{path}:{lineno}: context {ctx} references unknown document(s) {missing}",
                          CitemapWarning, stacklevel=2)
    return tuple(docs.values()), contexts


def write_corpus(path: str | Path, docs: Iterable[Document], contexts: Iterable[CitationContext]) -> Path:
    """Write a corpus dump (inverse of load_corpus). Deterministic bytes."""
    path = Path(path)
    records = [{"kind": "document", **asdict(doc)} for doc in docs]
    records += [{"kind": "context", **asdict(ctx)} for ctx in contexts]
    lines = [json.dumps(record, ensure_ascii=False, sort_keys=True) for record in records]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8", newline="\n")
    return path


def dataset_stats(cited: Sequence[Document], citing: Sequence[Document],
                  contexts: Iterable[CitationContext]) -> CorpusStats:
    """Totals plus the cited/citing overlap.

    A cited document overlaps the citing set when a citing document matches
    on DOI (if both carry one) or otherwise on id.
    """
    citing_dois = {d.doi for d in citing if d.doi}
    ids_without_doi = {d.id for d in citing if not d.doi}
    all_citing_ids = {d.id for d in citing}
    overlap = 0
    for doc in cited:
        if doc.doi:
            # DOI decides whenever both sides carry one; id only breaks the tie
            # against citing documents that have no DOI.
            if doc.doi in citing_dois or doc.id in ids_without_doi:
                overlap += 1
        elif doc.id in all_citing_ids:
            overlap += 1
    contexts = list(contexts)
    histogram = {doc.id: 0 for doc in cited}
    for cited_id, count in Counter(ctx.cited_id for ctx in contexts).items():
        histogram[cited_id] = count
    return CorpusStats(
        n_cited=len(cited),
        n_citing=len(citing),
        n_contexts=len(contexts),
        n_overlap=overlap,
        contexts_per_cited=histogram,
    )
