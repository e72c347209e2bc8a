#!/usr/bin/env python3
"""Regenerate the bundled corpora (src/citemap/data/*_corpus.jsonl).

Both corpora are synthetic and fully seeded, so reruns reproduce the same
bytes. The demo corpus is a small desk-scale dataset whose defaults-run
exercises every pipeline stage. The planted corpus implements the
topic-planting scheme used by the comparison tests: citation contexts reuse
the cited-document vocabulary while citing-paper abstracts draw from a
vocabulary that is 70% disjoint from it, which forces the relatedness
ordering sim(cited, context) > sim(citing, context).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from citemap.corpus import CitationContext, Document, write_corpus

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "citemap" / "data"

# Core topical vocabulary (shared by cited docs and contexts).
TOPIC_TERMS = [
    "journal impact factor",
    "citation analysis",
    "science citation index",
    "citation index",
    "research evaluation",
    "citation count",
    "bibliometric indicator",
    "publication output",
    "peer review",
    "web of science",
    "information retrieval",
    "scholarly communication",
    "historiograph",
    "research front",
    "self-citation",
    "journal ranking",
    "database coverage",
    "citation network",
]

# Vocabulary for citing-paper abstracts in the planted corpus: the first
# portion is shared with TOPIC_TERMS, the rest is disjoint.
PLANTED_SHARED_FRACTION = 0.3
PLANTED_FRESH_TERMS = [
    "machine learning",
    "neural network",
    "language model",
    "knowledge graph",
    "search engine",
    "recommendation system",
    "data mining",
    "text classification",
    "semantic web",
    "open access",
    "preprint server",
    "altmetrics",
    "social media",
    "research funding",
    "university ranking",
    "patent analysis",
    "software repository",
    "digital library",
    "author disambiguation",
    "topic model",
    "network embedding",
]

FILLER_SENTENCES = [
    "The results are discussed in detail.",
    "Several limitations apply to this approach.",
    "An empirical study illustrates the method.",
    "Earlier work is reviewed briefly.",
    "Data were collected over several years.",
]


def _sentence(rng: random.Random, pool: list[str], n_terms: int) -> str:
    terms = rng.sample(pool, k=min(n_terms, len(pool)))
    connectors = ["supports", "shapes", "predicts", "measures", "extends", "complements"]
    if len(terms) == 1:
        return f"The {terms[0]} is examined."
    parts = [f"The {terms[0]}"]
    for term in terms[1:]:
        parts.append(f"{rng.choice(connectors)} the {term}")
    return " ".join([parts[0]] + [" and ".join(parts[1:])]) + "."


def _abstract(rng: random.Random, pool: list[str], n_sentences: int, terms_per_sentence: tuple[int, int]) -> str:
    sentences = []
    for _ in range(n_sentences):
        sentences.append(_sentence(rng, pool, rng.randint(*terms_per_sentence)))
    if rng.random() < 0.4:
        sentences.append(rng.choice(FILLER_SENTENCES))
    return " ".join(sentences)


def make_demo() -> Path:
    rng = random.Random(20170607)
    docs = []
    n_cited, n_citing = 18, 22
    # skew the pool so roughly half the terms clear the default threshold of 4
    weighted_pool = TOPIC_TERMS[:10] * 3 + TOPIC_TERMS[10:]
    for k in range(1, n_cited + 1):
        title = _sentence(rng, weighted_pool, rng.randint(1, 2)).rstrip(".")
        abstract = _abstract(rng, weighted_pool, rng.randint(2, 3), (2, 3))
        docs.append(Document(
            id=f"C{k:03d}",
            title=title,
            set_tag="cited",
            doi=f"10.1000/demo.cited.{k:03d}",
            abstract=abstract,
            year=1955 + 3 * k,
        ))
    citing_pool = weighted_pool + PLANTED_FRESH_TERMS[:8] * 2
    for k in range(1, n_citing + 1):
        title = _sentence(rng, citing_pool, rng.randint(1, 2)).rstrip(".")
        abstract = _abstract(rng, citing_pool, rng.randint(2, 3), (2, 3))
        # two citing papers share a DOI with a cited paper (the overlap)
        doi = f"10.1000/demo.cited.{k:03d}" if k <= 2 else f"10.1000/demo.citing.{k:03d}"
        docs.append(Document(
            id=f"R{k:03d}",
            title=title,
            set_tag="citing",
            doi=doi,
            abstract=abstract,
            year=2005 + (k % 12),
        ))
    contexts = []
    for k in range(1, n_citing + 1):
        cited_targets = rng.sample(range(1, n_cited + 1), k=rng.randint(1, 3))
        for target in cited_targets:
            repeats = 2 if rng.random() < 0.2 else 1
            for ordinal in range(1, repeats + 1):
                text = _sentence(rng, weighted_pool, rng.randint(2, 3))
                contexts.append(CitationContext(f"R{k:03d}", f"C{target:03d}", text, ordinal))
    return write_corpus(DATA_DIR / "demo_corpus.jsonl", docs, contexts)


def make_planted() -> Path:
    rng = random.Random(4281558)
    n_shared = round(PLANTED_SHARED_FRACTION * len(PLANTED_FRESH_TERMS) / (1 - PLANTED_SHARED_FRACTION))
    shared = TOPIC_TERMS[:n_shared]
    citing_pool = shared + PLANTED_FRESH_TERMS  # 30% shared, 70% fresh
    docs = []
    n_cited, n_citing = 30, 40
    for k in range(1, n_cited + 1):
        docs.append(Document(
            id=f"P{k:03d}",
            title=_sentence(rng, TOPIC_TERMS, rng.randint(1, 2)).rstrip("."),
            set_tag="cited",
            doi=f"10.2000/planted.cited.{k:03d}",
            abstract=_abstract(rng, TOPIC_TERMS, 3, (2, 4)),
            year=1960 + k,
        ))
    for k in range(1, n_citing + 1):
        docs.append(Document(
            id=f"Q{k:03d}",
            title=_sentence(rng, citing_pool, rng.randint(1, 2)).rstrip("."),
            set_tag="citing",
            doi=f"10.2000/planted.citing.{k:03d}",
            abstract=_abstract(rng, citing_pool, 3, (2, 4)),
            year=2010 + (k % 10),
        ))
    contexts = []
    for k in range(1, n_citing + 1):
        for target in rng.sample(range(1, n_cited + 1), k=3):
            repeats = 2 if rng.random() < 0.15 else 1
            for ordinal in range(1, repeats + 1):
                # the planted premise: context text reuses cited vocabulary
                text = _sentence(rng, TOPIC_TERMS, rng.randint(2, 4))
                contexts.append(CitationContext(f"Q{k:03d}", f"P{target:03d}", text, ordinal))
    return write_corpus(DATA_DIR / "planted_corpus.jsonl", docs, contexts)


if __name__ == "__main__":
    for path in (make_demo(), make_planted()):
        print(f"wrote {path} ({path.stat().st_size} bytes)")
