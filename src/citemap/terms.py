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

Inside a sentence a candidate run also ends at a character of
``RUN_BREAKERS`` (",", ":", brackets, '"' and "/"), at a dash that stands
alone (a token of hyphens only, or en and em dashes with whitespace or the
text's edge on both sides), and at a possessive "'s" or "’s" (an apostrophe
after a token character, then an "s" that ends a token), so "citation
analysis, peer review" and "the journal's impact factor" join no phrases,
while "core–periphery structure" stays one. ``unit_candidates`` gives a
unit's candidates as the lexicon counts them.

A unit is tokenized once, into a token list in which one mark, ",", stands
for every sentence end, run breaker, standalone dash and possessive.
C-implemented string methods do the work on any text: ``translate`` turns
every character that is neither alnum nor "-" into a space (a run breaker
into ","), the marks of the sentence ends are spliced in, ``lower``
lowercases the whole spaced text, and ``split`` cuts the tokens. Only
standalone en and em dashes and possessives take a regular expression,
before ``translate`` and only in a text that holds a dash or an apostrophe.

Normalization is deliberately conservative: lowercase everything, strip one
trailing "s" only when the singular form already occurs somewhere in the
corpus (so "citation analysis" survives), and fold variants through an
optional thesaurus before counting. Author-name citations of the shape
"Moed et al", "Šubelj et al" or "O'Brien et al" are blanked out of the raw
text before segmentation, since case information is gone afterwards.
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
RUN_BREAKERS = ',:()[]"/'

# Abbreviations that keep a "." from ending a sentence where they begin a token
# ("tested." does not end in the guard "ed.").
ABBREVIATION_GUARDS = (
    "et al.", "e.g.", "i.e.", "etc.", "cf.", "vs.", "viz.", "ca.", "resp.",
    "fig.", "figs.", "eq.", "eqs.", "ref.", "refs.", "vol.", "no.", "pp.",
    "ed.", "eds.", "jr.", "sr.", "dr.", "prof.",
)
_GUARD_WINDOW = max(map(len, ABBREVIATION_GUARDS))

# Patterns that only rare text needs (author citations, possessives, en and em
# dashes) are strings, compiled on first use through re's cache, not at import.

# A name whose first letter is upper- or titlecase, or that follows an
# apostrophe-joined prefix ("O'Brien"); the case is checked in Python, since
# ``re`` has no class for it.
_NAME = r"(?:[^\W\d_]+['\u2019])?([^\W\d_])[\w\-]*"
# the whole word before "et al", so that a name may start inside it ("van-Raan")
_AUTHOR_CITATION = r"([\w'\u2019\-]+)\s+et\s+al\b\.?"
# searched for from a word's start only: a search from inside a long word would
# scan the rest of the word again from each of its characters
_WORD_START = r"(?<![\w'\u2019\-])"
# every match of _AUTHOR_CITATION holds one of this, and most texts hold none
_ET_AL = re.compile(r"et\s+al\b")


def _strip_author(match: re.Match) -> str:
    word = match[1]
    for start in range(len(word)):
        # a name starts at a word boundary: the word's start, or after "-" or an apostrophe
        if start and (word[start - 1].isalnum() or word[start - 1] == "_"):
            continue
        name = re.compile(_NAME).fullmatch(word, start)
        if name and name[1].istitle():  # for one letter: upper- or titlecase
            return word[:start] + " "
    return match[0]


def strip_citation_authors(text: str) -> str:
    """Blank out '<Capitalized> et al' author citations from raw text."""
    if not _ET_AL.search(text):
        return text
    citation, at_word_start = re.compile(_AUTHOR_CITATION), re.compile(_WORD_START + _AUTHOR_CITATION)
    pieces, end = [], 0
    # right after a citation the next may start inside a word ("Moed et al-Moed et al")
    while match := (end and citation.match(text, end)) or at_word_start.search(text, end):
        pieces += [text[end:match.start()], _strip_author(match)]
        end = match.end()
    pieces.append(text[end:])
    return "".join(pieces)


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


_BREAK = re.compile(f"[{re.escape(SENTENCE_BREAKERS)}](?=\\s)")


def _sentence_ends(text: str) -> list[int]:
    """The position after each sentence break of ``text``."""
    return [
        end for match in _BREAK.finditer(text)
        if text[(end := match.end()) - 1] != "." or not _guarded(text, end - 1)
    ]


# The one mark in a tokenized unit besides its tokens, for a sentence end, a run
# breaker, a dash standing alone and a possessive. It is no token, since a token
# holds only characters that are alnum or "-", and it holds no letter, so it
# breaks a candidate run.
_RUN_BREAK = ","


class _TokenTable(dict):
    """``str.translate``'s table: a token character (alnum or "-") maps to itself,
    a run breaker to ",", any other character to a space. Each value is one
    character, worked out when the character is first seen."""

    def __missing__(self, code: int) -> str:
        char = chr(code)
        self[code] = value = char if char.isalnum() or char == "-" else _RUN_BREAK if char in RUN_BREAKERS else " "
        return value


_TABLE = _TokenTable()
# In ``re``, ``[^\W_]`` is exactly ``str.isalnum`` and ``\s`` exactly ``str.isspace``.
# An en or em dash breaks a run only where it stands alone ("a \u2013 b", not "a\u2013b").
_DASHES = "\u2013\u2014"
_STANDALONE_DASHES = f"(?<!\\S)[{_DASHES}]+(?!\\S)"
# an apostrophe after a token character, then an "s" that ends a token; the
# apostrophe comes first, so that a search skips to the next apostrophe
_POSSESSIVE_S = "['\u2019](?<=(?:[^\\W_]|-)['\u2019])[sS](?![^\\W_]|-)"


def _dash_break(match: re.Match) -> str:
    # padded to the dash run's length, so the sentence ends still hold
    return _RUN_BREAK.ljust(len(match[0]))


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text`` in order, with ``_RUN_BREAK`` for each sentence end,
    run breaker, standalone dash and possessive."""
    ends = _sentence_ends(text)
    if "\u2013" in text or "\u2014" in text:  # one of _DASHES
        text = re.sub(_STANDALONE_DASHES, _dash_break, text)
    if "'" in text or "\u2019" in text:  # the possessive's mark keeps the length, so the ends still hold
        text = re.sub(_POSSESSIVE_S, _RUN_BREAK + " ", text)
    spaced = text.translate(_TABLE)  # same length as text; other apostrophes are spaces now
    unpadded = _RUN_BREAK in spaced  # the sentence ends' marks come padded
    if ends:  # the breaker before each end is a space now
        spaced = f" {_RUN_BREAK} ".join(
            [spaced[start:end] for start, end in zip([0, *ends], [*ends, len(spaced)])]
        )
    if unpadded:
        spaced = spaced.replace(_RUN_BREAK, f" {_RUN_BREAK} ")
    # Lowercasing the whole text equals lowercasing token by token: no character
    # lowercases to whitespace, and a space bounds both "İ" (to two characters)
    # and the context of a final "Σ". An apostrophe would not bound the context,
    # so lowercasing comes after the apostrophes are spaces ("ΟΔΟΣ’s" gives "οδος").
    tokens = spaced.lower().split()
    if "-" in spaced:  # hyphens survive only inside a token; a dash standing alone breaks a run
        tokens = [token.strip("-") or _RUN_BREAK for token in tokens]
    return tokens


def _fate(token: str, stopset: frozenset[str] | set[str], vocabulary: Container[str] | None) -> str | None:
    """None for a run-breaker (a stopword, or a token with no letter), else the normalized token."""
    if token in stopset or not any(ch.isalpha() for ch in token):
        return None
    if vocabulary is not None and len(token) > 3 and token.endswith("s") and token[:-1] in vocabulary:
        return token[:-1]
    return token


def _candidates(tokens: Sequence[str], fate: Mapping[str, str | None]) -> list[str]:
    """Every suffix of every maximal run of content tokens: runs in order, longest suffix first.

    Built back to front, each suffix is its first form joined to the suffix after it.
    """
    candidates: list[str] = []
    suffix = None
    for form in map(fate.__getitem__, reversed(tokens)):
        if form is None:
            suffix = None
        else:
            suffix = form if suffix is None else f"{form} {suffix}"
            candidates.append(suffix)
    candidates.reverse()
    return candidates


def unit_candidates(
    text: str,
    stoplist: Iterable[str],
    singular_vocabulary: frozenset[str] | set[str] | None = None,
) -> list[str]:
    """Candidates of one unit's text, as ``build_lexicon`` finds them before the thesaurus.

    Author citations are blanked first, and runs end at sentence ends, run
    breaks and possessives as well as at stoplist words and numeric tokens.
    When ``singular_vocabulary`` is given, a trailing "s" is stripped from a
    token longer than 3 characters whose singular form is in it.
    """
    stopset = stoplist if isinstance(stoplist, (set, frozenset)) else frozenset(stoplist)
    tokens = _tokenize(strip_citation_authors(text))
    fate = {token: _fate(token, stopset, singular_vocabulary) for token in tokens}
    return _candidates(tokens, fate)


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

    # First pass: tokenize every unit once; the full token vocabulary drives
    # the conservative plural merge, keeping the result order-invariant. The
    # vocabulary maps each token to its first string, and the kept token lists
    # hold that one string per distinct token instead of one per occurrence.
    tokenized: list[list[str]] = []
    vocabulary: dict[str, str] = {}
    for text in units:
        tokens = _tokenize(strip_citation_authors(text))
        tokenized.append(list(map(vocabulary.setdefault, tokens, tokens)))

    # each distinct token's fate is worked out once, not once per suffix; a mark's is None
    fate = {token: _fate(token, stopset, vocabulary) for token in vocabulary}
    counts: dict[str, dict[int, int]] = {}
    for position, tokens in enumerate(tokenized):
        candidates = _candidates(tokens, fate)
        if canon:
            candidates = [canon.get(term, term) for term in candidates]
        # after the thesaurus each term comes once per unit
        for term, times in Counter(candidates).items():
            counts.setdefault(term, {})[position] = times

    kept = sorted(
        term for term, per_term in counts.items() if len(per_term) >= min_occurrences and term not in stopset
    )
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
