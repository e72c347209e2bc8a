"""Candidate term extraction and lexicon construction.

A unit is the text of one title+abstract or one citation context, and the
lexicon refers to a unit by its position in the list of units. Units are
segmented into sentences, sentences into lowercase tokens; candidate terms
are the maximal runs of content tokens (no stopwords, no numbers) plus every
suffix sub-run, so "journal impact factor" also yields "impact factor" and
"factor". Counting is binary at the unit level: a term's occurrence count is
the number of distinct units containing it, however often it repeats inside
one unit.

Sentences and tokens are defined in ``str`` terms. A sentence ends after a
character of ``SENTENCE_BREAKERS`` (".?!;") that is followed by a character
for which ``str.isspace`` is true, unless the break is a "." that ends one
of ``ABBREVIATION_GUARDS`` (compared lowercased) and the guard begins a
token: the character before it is neither ``str.isalnum`` nor "-". A token
is a maximal run of characters that are ``str.isalnum`` or "-"; its leading
and trailing hyphens are stripped, it is lowercased with ``str.lower``, and
it is dropped if nothing is left.

Normalization is deliberately conservative: lowercase everything, strip one
trailing "s" only when the singular form already occurs somewhere in the
corpus (so "citation analysis" survives), and fold variants through an
optional thesaurus before counting. Author-name citations of the shape
"Moed et al" are blanked out of the raw text before segmentation, since
case information is gone afterwards.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Sequence

from .corpus import CitationContext, Document
from .errors import ConfigError, ConsistencyError, ParseError

TITLE_ABSTRACT = "title-abstract"
CITATION_CONTEXT = "citation-context"

SENTENCE_BREAKERS = ".?!;"

# Abbreviations that keep a "." from ending a sentence where they begin a token
# ("tested." does not end in the guard "ed.").
ABBREVIATION_GUARDS = (
    "et al.", "e.g.", "i.e.", "etc.", "cf.", "vs.", "viz.", "ca.", "resp.",
    "fig.", "figs.", "eq.", "eqs.", "ref.", "refs.", "vol.", "no.", "pp.",
    "ed.", "eds.", "jr.", "sr.", "dr.", "prof.",
)
_GUARD_WINDOW = max(map(len, ABBREVIATION_GUARDS))

_AUTHOR_CITATION = re.compile(r"\b[A-Z][\w\-]*\s+et\s+al\b\.?")


def strip_citation_authors(text: str) -> str:
    """Blank out '<Capitalized> et al' author citations from raw text."""
    return _AUTHOR_CITATION.sub(" ", text)


def _begins_token(text: str, start: int) -> bool:
    return start == 0 or not (text[start - 1].isalnum() or text[start - 1] == "-")


def _guarded(text: str, i: int) -> bool:
    # Lowercasing maps every character to one or more, and context (final
    # sigma) only picks between non-ASCII results, so the lowercased prefix
    # ends with an ASCII guard exactly when the lowercased window does, and
    # then each of the guard's characters comes from one character of text.
    head = text[max(0, i + 1 - _GUARD_WINDOW): i + 1].lower()
    # one endswith call over the tuple rejects most breaks
    return head.endswith(ABBREVIATION_GUARDS) and any(
        head.endswith(guard) and _begins_token(text, i + 1 - len(guard)) for guard in ABBREVIATION_GUARDS
    )


# In ``re``, ``[^\W_]`` is exactly ``str.isalnum`` and ``\s`` exactly ``str.isspace``.
_TOKEN = re.compile(r"(?:[^\W_]|-)+")
_BREAK = re.compile(f"[{re.escape(SENTENCE_BREAKERS)}](?=\\s)")


def _split_sentences(text: str) -> list[str]:
    pieces, start = [], 0
    for match in _BREAK.finditer(text):
        end = match.end()
        if text[end - 1] != "." or not _guarded(text, end - 1):
            pieces.append(text[start:end])
            start = end
    pieces.append(text[start:])
    return pieces


def _tokenize(piece: str) -> list[str]:
    # hyphens survive only inside a token
    return [token for raw in _TOKEN.findall(piece) if (token := raw.strip("-").lower())]


def segment(text: str) -> list[list[str]]:
    """Split text into sentences of lowercase tokens.

    Sentences end at ``.?!;`` followed by whitespace unless guarded by a
    known abbreviation ("et al.", "e.g.", ...); tokens split on whitespace
    and punctuation with hyphens preserved inside tokens.
    """
    sentences = []
    for piece in _split_sentences(text):
        tokens = _tokenize(piece)
        if tokens:
            sentences.append(tokens)
    return sentences


def _fate(token: str, stopset: frozenset[str] | set[str], vocabulary: Container[str] | None) -> str | None:
    """None for a run-breaker (a stopword, or a token with no letter), else the normalized token."""
    if token in stopset or not any(ch.isalpha() for ch in token):
        return None
    if vocabulary is not None and len(token) > 3 and token.endswith("s") and token[:-1] in vocabulary:
        return token[:-1]
    return token


def _content_runs(sentence: Sequence[str], fate: Mapping[str, str | None]) -> list[list[str]]:
    """The sentence's maximal runs of normalized content tokens."""
    runs: list[list[str]] = []
    current: list[str] = []
    for token in sentence:
        form = fate[token]
        if form is None:
            if current:
                runs.append(current)
                current = []
        else:
            current.append(form)
    if current:
        runs.append(current)
    return runs


def _suffixes(run: list[str]) -> list[str]:
    """Every suffix sub-run of a content run, longest first, as one string each."""
    joined = " ".join(run)
    suffixes = [joined]
    offset = 0
    for form in run[:-1]:
        offset += len(form) + 1
        suffixes.append(joined[offset:])
    return suffixes


def extract_candidates(
    sentence: Sequence[str],
    stoplist: Iterable[str],
    singular_vocabulary: frozenset[str] | set[str] | None = None,
) -> list[str]:
    """Candidates of one sentence: maximal content runs plus their suffixes.

    Stoplist words and numeric tokens break runs. When a corpus-wide token
    vocabulary is supplied, a trailing "s" is stripped from tokens longer
    than 3 characters whose singular form is already in the vocabulary.
    """
    stopset = stoplist if isinstance(stoplist, (set, frozenset)) else frozenset(stoplist)
    fate = {token: _fate(token, stopset, singular_vocabulary) for token in sentence}
    return [
        term
        for run in _content_runs(sentence, fate)
        for term in _suffixes(run)
    ]


def make_units(source: Iterable[Document] | Iterable[CitationContext], mode: str) -> list[str]:
    """The texts of the units, in the order of ``source``.

    ``title-abstract`` concatenates title and abstract (title alone when the
    abstract is missing), one unit per document; ``citation-context`` yields
    one unit per context. Two records with one key, a document's id or a
    context's (citing_id, cited_id, ordinal), are a ConsistencyError.
    """
    units: list[str] = []
    seen: set[object] = set()
    if mode == TITLE_ABSTRACT:
        for doc in source:
            if not isinstance(doc, Document):
                raise ConsistencyError(f"{mode} mode needs documents, got {type(doc).__name__}")
            if doc.id in seen:
                raise ConsistencyError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
            units.append(f"{doc.title} {doc.abstract}" if doc.abstract else doc.title)
    elif mode == CITATION_CONTEXT:
        for ctx in source:
            if not isinstance(ctx, CitationContext):
                raise ConsistencyError(f"{mode} mode needs contexts, got {type(ctx).__name__}")
            if ctx.key in seen:
                raise ConsistencyError(f"duplicate context {ctx}")
            seen.add(ctx.key)
            units.append(ctx.text)
    else:
        raise ConfigError(f"unknown unit mode {mode!r}")
    return units


@dataclass(frozen=True)
class LexiconEntry:
    """One retained term and the units that hold it.

    ``unit_counts`` maps a unit's position in the list of units to the
    term's occurrences inside that unit, in ascending position order. The
    term's occurrence count is the number of units that hold it.
    """

    term: str
    unit_counts: dict[int, int]

    @property
    def occurrence_count(self) -> int:
        return len(self.unit_counts)


# a lexicon is its entries, in ascending term order
Lexicon = tuple[LexiconEntry, ...]


def resolve_thesaurus(mapping: Mapping[str, str]) -> dict[str, str]:
    """Compress variant->canonical chains to fixpoints; cycles are a ConfigError."""
    resolved: dict[str, str] = {}
    for variant in mapping:
        seen = [variant]
        target = variant
        while target in mapping:
            target = mapping[target]
            if target in seen:
                raise ConfigError(f"thesaurus cycle: {' -> '.join(seen + [target])}")
            seen.append(target)
        if target != variant:
            resolved[variant] = target
    return resolved


def build_lexicon(
    units: Sequence[str],
    min_occurrences: int = 4,
    thesaurus: Mapping[str, str] | None = None,
    stoplist: Iterable[str] = (),
) -> Lexicon:
    """Count candidate terms per unit text (binary) and keep the frequent ones.

    Returns one entry per term that occurs in ``min_occurrences`` or more
    units, in ascending term order. Each entry refers to a unit by its
    position in ``units``. The thesaurus is applied before counting, so
    merged variants pool their unit sets; a term whose normalized form
    equals a stoplist word never enters. Exclusions are not applied here but
    after the relevance cut, by ``select_top_terms``. Reordering the units
    only permutes the positions in each entry.
    """
    if min_occurrences < 1:
        raise ConfigError(f"min_occurrences must be >= 1, got {min_occurrences}")
    stopset = frozenset(stoplist)
    canon = resolve_thesaurus(thesaurus or {})

    # First pass: segment every unit once; the full token vocabulary drives
    # the conservative plural merge, keeping the result order-invariant. The
    # vocabulary maps each token to its first string, and the kept sentences
    # hold that one string per distinct token instead of one per occurrence.
    segmented: list[list[list[str]]] = []
    vocabulary: dict[str, str] = {}
    for text in units:
        segmented.append([
            list(map(vocabulary.setdefault, sentence, sentence))
            for sentence in segment(strip_citation_authors(text))
        ])

    # each distinct token's fate is worked out once, not once per suffix
    fate = {token: _fate(token, stopset, vocabulary) for token in vocabulary}
    counts: dict[str, dict[int, int]] = {}
    for position, sentences in enumerate(segmented):
        candidates: list[str] = []
        for sentence in sentences:
            for run in _content_runs(sentence, fate):
                candidates += _suffixes(run)
        for term, times in Counter(candidates).items():
            if term in canon:
                term = canon[term]
            if term in stopset:
                continue
            per_term = counts.setdefault(term, {})
            per_term[position] = per_term.get(position, 0) + times

    kept = sorted(term for term, per_term in counts.items() if len(per_term) >= min_occurrences)
    # units are counted in order, so each count dict is already ascending by position
    return tuple(LexiconEntry(term, counts[term]) for term in kept)


def parse_word_list(text: str) -> list[str]:
    """Word-list entries: one per line, lowercased; '#' comments and blanks skipped."""
    entries = []
    for line in text.splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            entries.append(entry.lower())
    return entries


def parse_thesaurus(text: str, source: str | None) -> dict[str, str]:
    """Two-column TSV thesaurus entries, variant<TAB>canonical; errors name ``source``."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ParseError(f"{source}:{lineno}: expected 'variant<TAB>canonical'")
        mapping[parts[0].strip().lower()] = parts[1].strip().lower()
    return mapping
