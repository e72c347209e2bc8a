"""Shared fixtures and tiny builders for the test suite."""

from __future__ import annotations

import pytest

from citemap.corpus import CitationContext, Document
from citemap.network import CoocNetwork, SimilarityMatrix, TermNode
from citemap.pipeline import builtin_corpus_path


@pytest.fixture(scope="session")
def demo_corpus():
    return builtin_corpus_path("demo")


@pytest.fixture(scope="session")
def planted_corpus():
    return builtin_corpus_path("planted")


def doc(doc_id: str, set_tag: str = "cited", title: str = "untitled", **kwargs) -> Document:
    return Document(id=doc_id, title=title, set_tag=set_tag, **kwargs)


def ctx(citing: str, cited: str, text: str = "some snippet", ordinal: int = 1) -> CitationContext:
    return CitationContext(citing, cited, text, ordinal)


def network(term_occurrences: dict[str, int], edges: dict[tuple[int, int], int]) -> CoocNetwork:
    terms = tuple(TermNode(term, occ) for term, occ in term_occurrences.items())
    return CoocNetwork(terms, dict(edges))


def sim(n: int, strengths: dict[tuple[int, int], float]) -> SimilarityMatrix:
    return SimilarityMatrix(tuple(f"t{k}" for k in range(n)), dict(strengths))
