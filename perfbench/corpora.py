"""Seeded synthetic corpora for the benchmark workloads.

Two families, both written as JSONL corpus dumps in the format the program's
``load_corpus`` reads, with the same bytes for the same seed:

* **Pareto-topic**: a vocabulary of pseudo-words and topics, each topic its
  own seeded ordering of the whole vocabulary; each document picks a topic
  and draws its terms by Pareto(1.1) rank in that ordering, so a few terms
  per topic are frequent and the tail is long. This follows the VOS/SLM evaluation
  lineage of heavy-tailed term frequencies with planted topical structure.
* **Planted**: the scheme of the bundled planted corpus at scale. Citation
  contexts reuse the cited documents' vocabulary, while citing abstracts
  draw 70% of their terms from a disjoint vocabulary, which forces the
  ordering sim(cited, context) > sim(citing, context).

Pseudo-words are built from consonant-vowel syllables without "e" or "s",
so they never collide with stoplist words and never look like plurals.
Sentences join noun phrases with stoplist words ("the", "of", "and") and a
few common verbs, which become generic high-frequency terms that the
relevance cut has to remove.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable

CONSONANTS = "bdfgklmnprtvz"
VOWELS = "aiou"
VERBS = ("shapes", "predicts", "measures", "extends", "supports", "reveals", "improves", "limits")
FILLER = (
    "The results are discussed in detail.",
    "Several limitations apply to this approach.",
    "An empirical study illustrates the method.",
    "Earlier work is reviewed briefly.",
)
PARETO_ALPHA = 1.1
RANK_SCALE = 4.0  # Pareto draw x becomes rank int(RANK_SCALE * (x - 1)): about 22% of draws hit a topic's top word
MIX_SHARE = 0.25  # share of documents that mix a second topic into their own
OWN_TOPIC_SHARE = 0.7  # share of a mixed document's phrases drawn from its own topic
PARETO_VOCABULARY, PARETO_TOPICS = 3000, 20
PLANTED_VOCABULARY, PLANTED_TOPICS = 1500, 10
PLANTED_SHARED_SHARE = 0.3  # share of citing-abstract phrases drawn from the cited vocabulary
CITES_PER_CITING = 3


def pseudo_words(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct pronounceable words of 2 to 4 syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class TopicModel:
    """Topics as seeded orderings of one vocabulary; draws by Pareto rank."""

    def __init__(self, rng: random.Random, vocabulary: list[str], n_topics: int):
        self.orders = [rng.sample(vocabulary, len(vocabulary)) for _ in range(n_topics)]

    def word(self, rng: random.Random, topic: int) -> str:
        order = self.orders[topic]
        while True:
            rank = int(RANK_SCALE * (rng.paretovariate(PARETO_ALPHA) - 1.0))
            if rank < len(order):
                return order[rank]

    def phrase(self, rng: random.Random, topic: int) -> str:
        """A noun phrase of one or two words."""
        if rng.random() < 0.35:
            return f"{self.word(rng, topic)} {self.word(rng, topic)}"
        return self.word(rng, topic)

    def document_drawer(self, rng: random.Random) -> tuple[int, Callable[[], str]]:
        """A document's own topic and its phrase source, mixing in a second topic for some documents."""
        topic = rng.randrange(len(self.orders))
        second = rng.randrange(len(self.orders)) if rng.random() < MIX_SHARE else topic
        return topic, lambda: self.phrase(rng, topic if rng.random() < OWN_TOPIC_SHARE else second)


def _sentence(rng: random.Random, phrases: list[str]) -> str:
    text = f"The {phrases[0]}"
    for k, phrase in enumerate(phrases[1:]):
        joiner = rng.choice(VERBS) if k == 0 else rng.choice(("of", "and", "with"))
        text += f" {joiner} the {phrase}"
    return text + "."


def _text(rng: random.Random, draw: Callable[[], str], n_sentences: int) -> str:
    sentences = [_sentence(rng, [draw() for _ in range(rng.randint(2, 4))]) for _ in range(n_sentences)]
    if rng.random() < 0.3:
        sentences.append(rng.choice(FILLER))
    return " ".join(sentences)


def _document(doc_id: str, set_tag: str, year: int, title: str, abstract: str) -> dict:
    return {"kind": "document", "id": doc_id, "doi": f"10.9999/bench.{doc_id.lower()}",
            "title": title, "abstract": abstract, "year": year, "set_tag": set_tag}


def pareto_topic(seed: int, n_docs: int) -> list[dict]:
    """Records of a Pareto-topic corpus; half the documents are cited, half citing."""
    rng = random.Random(f"pareto-topic:{seed}")
    model = TopicModel(rng, pseudo_words(rng, PARETO_VOCABULARY), PARETO_TOPICS)
    records = []
    for k in range(n_docs):
        _, draw = model.document_drawer(rng)
        records.append(_document(f"D{k:05d}", "cited" if k % 2 == 0 else "citing", 1990 + k % 30,
                                 _sentence(rng, [draw(), draw()]).rstrip("."),
                                 _text(rng, draw, rng.randint(4, 7))))
    return records


def planted(seed: int, n_cited: int, n_citing: int) -> list[dict]:
    """Records of a planted corpus: documents first, then citation contexts."""
    rng = random.Random(f"planted:{seed}")
    words = pseudo_words(rng, 2 * PLANTED_VOCABULARY)
    cited_model = TopicModel(rng, words[:PLANTED_VOCABULARY], PLANTED_TOPICS)
    citing_model = TopicModel(rng, words[PLANTED_VOCABULARY:], PLANTED_TOPICS)
    records = []
    cited_topics = []
    for k in range(n_cited):
        topic, draw = cited_model.document_drawer(rng)
        cited_topics.append(topic)
        records.append(_document(f"P{k:05d}", "cited", 1970 + k % 30,
                                 _sentence(rng, [draw(), draw()]).rstrip("."),
                                 _text(rng, draw, rng.randint(3, 5))))
    contexts = []
    for k in range(n_citing):
        topic = rng.randrange(PLANTED_TOPICS)

        def draw_citing() -> str:
            model = cited_model if rng.random() < PLANTED_SHARED_SHARE else citing_model
            return model.phrase(rng, topic)

        citing_id = f"Q{k:05d}"
        records.append(_document(citing_id, "citing", 2000 + k % 20,
                                 _sentence(rng, [draw_citing(), draw_citing()]).rstrip("."),
                                 _text(rng, draw_citing, rng.randint(3, 5))))
        for target in sorted(rng.sample(range(n_cited), CITES_PER_CITING)):
            # the planted premise: a context reuses the cited document's vocabulary
            phrases = [cited_model.phrase(rng, cited_topics[target]) for _ in range(rng.randint(2, 4))]
            contexts.append({"kind": "context", "citing_id": citing_id, "cited_id": f"P{target:05d}",
                             "text": _sentence(rng, phrases), "ordinal": 1})
    return records + contexts


def write_jsonl(path: Path, records: list[dict]) -> Path:
    lines = [json.dumps(record, ensure_ascii=False, sort_keys=True) for record in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path
