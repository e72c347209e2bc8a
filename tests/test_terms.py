"""Segmentation, candidate extraction, and lexicon construction."""

from __future__ import annotations

import random
import re
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citemap.errors import ConfigError, ConsistencyError
from citemap.network import count_cooccurrences, relevance_scores, select_top_terms
from citemap.pipeline import PipelineConfig, _resolve_word_lists
from citemap.terms import (
    ABBREVIATION_GUARDS,
    CITATION_CONTEXT,
    RUN_BREAKERS,
    SENTENCE_BREAKERS,
    TITLE_ABSTRACT,
    LexiconEntry,
    build_lexicon,
    make_units,
    resolve_thesaurus,
    _AUTHOR_CITATION,
    _ET_AL,
    _RUN_BREAK,
    _candidates,
    _fate,
    _guarded,
    _sentence_ends,
    _tokenize,
    _strip_author,
    strip_citation_authors,
    unit_candidates,
)

from conftest import ctx, doc


def by_term(lexicon) -> dict:
    return {entry.term: entry for entry in lexicon}


def sentences_of(text: str) -> list[str]:
    """``text`` cut after each of its sentence ends."""
    ends = _sentence_ends(text)
    return [text[start:end] for start, end in zip([0, *ends], [*ends, len(text)])]


def without_marks(tokens: list[str]) -> list[str]:
    return [token for token in tokens if token != _RUN_BREAK]


def sentence_tokens(text: str) -> list[list[str]]:
    """The tokens of each sentence of ``text``, without the break marks; a sentence with no token is left out."""
    return [tokens for sentence in sentences_of(text) if (tokens := without_marks(_tokenize(sentence)))]


def candidates_of(tokens, stoplist, singular_vocabulary=None) -> list[str]:
    """The candidates of a token list, each token's fate worked out as the lexicon does."""
    return _candidates(tokens, {token: _fate(token, stoplist, singular_vocabulary) for token in tokens})


class TestSegment:
    def test_empty(self):
        assert sentence_tokens("") == []

    def test_splits_on_period_and_lowercases(self):
        assert sentence_tokens("Impact factor. It works.") == [["impact", "factor"], ["it", "works"]]

    def test_abbreviation_guard(self):
        sentences = sentence_tokens("see Moed et al. 2010 for details")
        assert len(sentences) == 1
        assert len(sentences[0]) == 7
        assert sentences[0] == ["see", "moed", "et", "al", "2010", "for", "details"]

    @pytest.mark.parametrize("guard", ["e.g.", "i.e.", "etc."])
    def test_other_guards(self, guard):
        assert len(sentence_tokens(f"metrics {guard} counts are used")) == 1

    def test_semicolon_question_exclamation_split(self):
        assert len(sentence_tokens("One thing; another thing? a third thing! done")) == 4

    def test_hyphens_survive_inside_tokens(self):
        assert sentence_tokens("the h-index rocks") == [["the", "h-index", "rocks"]]

    def test_punctuation_is_stripped(self):
        assert sentence_tokens("(impact) factor, 'quoted'") == [["impact", "factor", "quoted"]]

    def test_no_split_without_whitespace(self):
        assert sentence_tokens("cost 3.5 units") == [["cost", "3", "5", "units"]]

    @pytest.mark.parametrize("text", [
        "Methods were tested. Citation analysis shows bias.",
        "She played the piano. Citation analysis shows bias.",
        "The co-ed. Citation analysis shows bias.",
    ])
    def test_guard_must_begin_a_token(self, text):
        assert len(sentence_tokens(text)) == 2

    @pytest.mark.parametrize("text", ["No. 5 is cited.", "see (Fig. 2) here", "so-called [e.g. counts]"])
    def test_guard_after_punctuation_or_at_start(self, text):
        assert len(sentence_tokens(text)) == 1

    def test_windowed_guard_matches_whole_prefix_lowercasing(self):
        def reference(text: str, i: int) -> bool:  # lowercases the whole prefix
            head = text[: i + 1].lower()
            # an ASCII guard's characters each come from one character of text
            return any(
                head.endswith(guard)
                and (i + 1 == len(guard) or not (text[i - len(guard)].isalnum() or text[i - len(guard)] == "-"))
                for guard in ABBREVIATION_GUARDS
            )

        # "İ" lowercases to two characters, "Σ" by context, the Kelvin sign to "k"
        pieces = [*ABBREVIATION_GUARDS, *(g.upper() for g in ABBREVIATION_GUARDS),
                  "İ", "Σ", "\u212a", "I", "E", "e", "g", "al", "no", ".", " ", "x"]
        rng = random.Random(11)
        guarded = 0
        for _ in range(500):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 12)))
            expected = [reference(text, i) for i in range(len(text))]
            assert [_guarded(text, i) for i in range(len(text))] == expected, text
            guarded += sum(expected)
        assert guarded > 500


# Character loops in plain str terms, kept as the reference for the regex kernel.
def _oracle_split_sentences(text: str) -> list[str]:
    pieces, start = [], 0
    for i, ch in enumerate(text):
        if ch in SENTENCE_BREAKERS and i + 1 < len(text) and text[i + 1].isspace() and not _guarded(text, i):
            pieces.append(text[start:i + 1])
            start = i + 1
    pieces.append(text[start:])
    return [p for p in pieces if p.strip()]


def _oracle_tokenize(piece: str) -> list[str]:
    tokens: list[str] = []
    current: list[str] = []
    for ch in piece:
        if ch.isalnum() or ch == "-":
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    cleaned = (t.strip("-").lower() for t in tokens)
    return [t for t in cleaned if t]


def _oracle_segment(text: str) -> list[list[str]]:
    return [tokens for piece in _oracle_split_sentences(text) if (tokens := _oracle_tokenize(piece))]


def _oracle_blank_possessives(piece: str) -> str:
    """``piece`` with the "s" of each possessive blanked: an "s" after an apostrophe
    that follows a token character, where the "s" ends a token."""
    def token_char(i: int) -> bool:
        return 0 <= i < len(piece) and (piece[i].isalnum() or piece[i] == "-")

    return "".join(
        " " if ch in "sS" and i >= 2 and piece[i - 1] in "'\u2019" and token_char(i - 2) and not token_char(i + 1)
        else ch
        for i, ch in enumerate(piece)
    )


def _assert_matches_oracle(text: str) -> None:
    # the sentences, then the tokens of the whole text, which hold a possessive's mark where the oracle holds its "s"
    pieces = _oracle_split_sentences(text)
    assert [piece for piece in sentences_of(text) if piece.strip()] == pieces
    assert without_marks(_tokenize(text)) == [
        token for piece in pieces for token in _oracle_tokenize(_oracle_blank_possessives(piece))
    ]


# The tokenizer as one regular expression over each sentence, lowercasing token by
# token, kept as the reference for the marks that _tokenize adds.
_REFERENCE_DASHES = "\u2013\u2014"
_REFERENCE_TOKEN = re.compile(
    f"(?<=[^\\W_]|-)['\u2019][sS](?![^\\W_]|-)|(?:[^\\W_]|-)+|[{re.escape(RUN_BREAKERS)}]"
    f"|(?<!\\S)[{_REFERENCE_DASHES}]+(?!\\S)"
)


def _reference_tokens(text: str) -> list[str]:
    ends = _sentence_ends(text)
    tokens = []
    for start, end in zip([0, *ends], [*ends, len(text)]):
        if start:
            tokens.append(_RUN_BREAK)
        for raw in _REFERENCE_TOKEN.findall(text, start, end):
            if raw[0] in RUN_BREAKERS or raw[0] in _REFERENCE_DASHES or raw[0] in "'\u2019":
                tokens.append(_RUN_BREAK)
            else:
                tokens.append(raw.strip("-").lower() or _RUN_BREAK)
    return tokens


def _oracle_extract_candidates(sentence, stopset, vocabulary) -> list[str]:
    # every token of every suffix is tested and singularized on its own
    def singular(token: str) -> str:
        if vocabulary is not None and len(token) > 3 and token.endswith("s") and token[:-1] in vocabulary:
            return token[:-1]
        return token

    runs: list[list[str]] = []
    current: list[str] = []
    for token in sentence:
        if token in stopset or not any(ch.isalpha() for ch in token):
            if current:
                runs.append(current)
                current = []
        else:
            current.append(token)
    if current:
        runs.append(current)
    return [
        " ".join(singular(t) for t in run[start:])
        for run in runs
        for start in range(len(run))
    ]


# "_" is not alphanumeric; non-ASCII digits and numerals are; "\x1c"-"\x1f" and
# U+2028 are whitespace; "İ" lowercases to two characters and the Kelvin sign to "k"
KERNEL_PIECES = st.one_of(
    st.text(max_size=8),
    st.sampled_from([
        *ABBREVIATION_GUARDS, *(g.upper() for g in ABBREVIATION_GUARDS),
        "_", "-", "--", "\u0663", "\u00b2", "\u216b", "\u00bd", "\x1c", "\x1d", "\x1e", "\x1f", "\u2028",
        "\u0130", "\u212a", "\u03a3", ".", "?", "!", ";", " ", "\n", "no", "ed", "ab", "Moed et al. ",
    ]),
)
# every ASCII code point, plus the pieces the kernel treats specially: "\x1c"-"\x1f" are
# whitespace, "_" is not alphanumeric, and apostrophes and RUN_BREAKERS mark run breaks
ASCII_KERNEL_PIECES = st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=8),
    st.sampled_from([
        *ABBREVIATION_GUARDS, *(g.upper() for g in ABBREVIATION_GUARDS),
        "_", "-", "--", " - ", "\x1c", "\x1d", "\x1e", "\x1f", ".", "?", "!", ";", " ", "\n", "\t",
        "no", "ed", "ab", "s", "'s", "'S", "'", ",", ":", "(", ")", "/", '"', "Moed et al. ",
    ]),
)
# every mark, curly apostrophes and en and em dashes, alone and inside words, and text
# whose lowercase depends on its neighbours: "İ" lowercases to two characters, a
# final "Σ" to "ς", and "’" and a combining accent are case-ignorable
UNICODE_TOKEN_PIECES = st.one_of(
    KERNEL_PIECES,
    ASCII_KERNEL_PIECES,
    st.sampled_from([
        "\u2019s", "\u2019S", "\u2019", "\u2013", "\u2014", "\u2014\u2014", " \u2013 ", "core\u2013periphery",
        "\u0130", "\u03a3", "\u039f\u0394\u039f\u03a3", "\u212a", "\u0301", "\u00e9", "s", "S",
    ]),
)
CANDIDATE_TOKENS = st.one_of(
    st.text(max_size=5),
    st.sampled_from(["factor", "factors", "gas", "ga", "analysis", "citation", "citations", "the", "of",
                     "1,500", "2010", "h-index", "", "a b", "\u216b", "\u017fs"]),
)


class TestKernelMatchesCharacterLoops:
    @given(st.lists(KERNEL_PIECES, max_size=20).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_segment(self, text):
        _assert_matches_oracle(text)

    @given(st.lists(CANDIDATE_TOKENS, max_size=12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_extract_candidates(self, sentence, data):
        # stopwords and singular forms drawn from the sentence itself, so that both rules fire
        stop = data.draw(st.sets(st.sampled_from(["the", *sentence]), max_size=3))
        singulars = st.sampled_from(["factor", *sentence, *(t[:-1] for t in sentence if t.endswith("s"))])
        vocabulary = data.draw(st.none() | st.sets(singulars, min_size=1))
        assert candidates_of(sentence, stop, vocabulary) == _oracle_extract_candidates(sentence, stop, vocabulary)

    @given(st.lists(ASCII_KERNEL_PIECES, max_size=20).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_segment_on_ascii_text(self, text):
        # st.text() above rarely draws an all-ASCII text, which translate maps by its ASCII fast path
        assert text.isascii()
        _assert_matches_oracle(text)

    @given(st.lists(ASCII_KERNEL_PIECES, max_size=20).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_tokens_match_reference_on_ascii_text(self, text):
        # marks included: the sentence ends, the run breaks and the possessives
        assert _tokenize(text) == _reference_tokens(text)

    @given(st.lists(UNICODE_TOKEN_PIECES, max_size=20).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_tokens_match_reference(self, text):
        assert _tokenize(text) == _reference_tokens(text)

    def test_segment_on_bundled_corpora(self, demo_corpus, planted_corpus):
        from citemap.corpus import load_corpus

        texts = []
        for path in (demo_corpus, planted_corpus):
            docs, contexts = load_corpus(path)
            texts += [f"{d.title} {d.abstract}" for d in docs] + [c.text for c in contexts]
        for text in texts:
            _assert_matches_oracle(text)


# the author-citation pattern before names could start with a non-ASCII capital or a prefix
_ASCII_CAPITAL_CITATION = re.compile(r"\b[A-Z][\w\-]*\s+et\s+al\b\.?")
AUTHOR_PIECES = st.sampled_from([
    "Moed", "moed", "van-Raan", "VAN", "x_Moed", "1Moed", "-Moed", "Moed-x", "A", "e", "Šubelj", "šubelj",
    "Ávila", "\u01c5emal", "O'Brien", "d'Alembert", "o'brien", "Smith's", "l\u2019Abbé", "et", "al", "et al",
    " et al", " et al.", " et\nal", " et  al.", "al.", " ", "  ", "\n", ".", "-", "'", "\u2019", "_",
])


class TestStripCitationAuthors:
    def test_removes_capitalized_author(self):
        cleaned = strip_citation_authors("as shown by Moed et al. the factor")
        assert "moed" not in cleaned.lower()

    def test_keeps_lowercase_phrases(self):
        assert strip_citation_authors("rabbits et al are not authors") == "rabbits et al are not authors"

    @pytest.mark.parametrize("text, name", [
        ("as shown by Šubelj et al. the factor", "šubelj"),
        ("as shown by Ávila et al. the factor", "ávila"),
        ("as shown by \u01c5emal et al. the factor", "\u01c6emal"),  # a titlecase first letter
    ])
    def test_removes_non_ascii_capitalized_author(self, text, name):
        assert strip_citation_authors(text) == "as shown by   the factor"
        terms = by_term(build_lexicon([text], min_occurrences=1, stoplist={"as", "by", "the"}))
        assert not [term for term in terms if name in term]

    @pytest.mark.parametrize("text", ["as O'Brien et al. showed", "as d'Alembert et al. showed",
                                      "as O\u2019Brien et al. showed"])
    def test_removes_author_with_apostrophe_prefix(self, text):
        assert strip_citation_authors(text) == "as   showed"
        assert set(by_term(build_lexicon([text], min_occurrences=1, stoplist={"as"}))) == {"showed"}

    def test_name_may_start_inside_a_hyphenated_word(self):
        assert strip_citation_authors("see van-Raan et al. here") == "see van-  here"

    @pytest.mark.parametrize("text, stripped", [
        ("x" * 20_000 + " and Moed et al. showed", "x" * 20_000 + " and   showed"),
        ("x" * 20_000 + " et al. showed", "x" * 20_000 + " et al. showed"),
    ], ids=["word-elsewhere", "word-before-et-al"])
    def test_long_word_is_scanned_once(self, text, stripped):
        # a match that could start inside a word took 6 s on the first text, scanning
        # the rest of the word from each of its characters; from its start it takes 1 ms
        start = time.perf_counter()
        assert strip_citation_authors(text) == stripped
        assert time.perf_counter() - start < 1.0

    @given(st.lists(AUTHOR_PIECES, max_size=12).map("".join))
    @example("Moed et al-Moed et al")  # the second citation starts right after the first
    @example("Moed et al\u2019O'Brien et al")
    @settings(max_examples=300, deadline=None)
    def test_et_al_search_is_a_necessary_condition(self, text):
        if re.search(_AUTHOR_CITATION, text):
            assert _ET_AL.search(text)
        assert strip_citation_authors(text) == re.sub(_AUTHOR_CITATION, _strip_author, text)

    @given(st.lists(AUTHOR_PIECES.filter(lambda p: p.isascii() and "'" not in p), max_size=12).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_ascii_names_without_apostrophes_as_before(self, text):
        assert strip_citation_authors(text) == _ASCII_CAPITAL_CITATION.sub(" ", text)


class TestExtractCandidates:
    def test_runs_and_suffixes(self):
        cands = candidates_of(
            ["the", "journal", "impact", "factor", "is", "useful"], {"the", "is"}
        )
        assert cands == ["journal impact factor", "impact factor", "factor", "useful"]

    def test_all_stoplist_sentence(self):
        assert candidates_of(["the", "is", "of"], {"the", "is", "of"}) == []

    def test_numeric_token_breaks_run(self):
        cands = candidates_of(["cited", "1,500", "papers"], set())
        assert cands == ["cited", "papers"]

    def test_plural_merge_needs_vocabulary(self):
        no_vocab = candidates_of(["factors"], set())
        assert no_vocab == ["factors"]
        merged = candidates_of(["factors"], set(), singular_vocabulary={"factor", "factors"})
        assert merged == ["factor"]

    def test_plural_merge_is_conservative(self):
        # "analysis" has no observed singular, so it is left alone
        vocab = {"analysis", "citation"}
        cands = candidates_of(["citation", "analysis"], set(), singular_vocabulary=vocab)
        assert cands == ["citation analysis", "analysis"]

    def test_short_tokens_never_merged(self):
        vocab = {"ga", "gas"}
        assert candidates_of(["gas"], set(), singular_vocabulary=vocab) == ["gas"]


class TestMakeUnits:
    def test_title_only_document(self):
        assert make_units([doc("a", title="Only title")], TITLE_ABSTRACT) == ["Only title"]

    def test_title_and_abstract_concatenated(self):
        units = make_units([doc("a", title="Title", abstract="Abstract body")], TITLE_ABSTRACT)
        assert units == ["Title Abstract body"]

    def test_one_unit_per_document(self):
        docs = [doc(f"d{k}", title=f"t{k}") for k in range(59)]
        assert len(make_units(docs, TITLE_ABSTRACT)) == 59

    def test_one_unit_per_context(self):
        contexts = [ctx(f"r{k % 40}", f"c{k % 10}", f"snippet {k}", ordinal=k // 40 + 1) for k in range(428)]
        units = make_units(contexts, CITATION_CONTEXT)
        assert len(units) == 428
        assert units == [c.text for c in contexts]  # corpus order

    def test_two_contexts_with_one_key_rejected(self):
        contexts = [ctx("r", "c", "first snippet"), ctx("r", "c", "second snippet")]
        with pytest.raises(ConsistencyError, match=r"duplicate context \('r' -> 'c' #1\)"):
            make_units(contexts, CITATION_CONTEXT)

    def test_two_documents_with_one_id_rejected(self):
        with pytest.raises(ConsistencyError, match="duplicate document id 'a'"):
            make_units([doc("a", title="first"), doc("a", title="second")], TITLE_ABSTRACT)

    def test_mode_mismatch(self):
        with pytest.raises(ConsistencyError):
            make_units([doc("a")], CITATION_CONTEXT)
        with pytest.raises(ConsistencyError):
            make_units([ctx("a", "b")], TITLE_ABSTRACT)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            make_units([doc("a")], "verbatim")


class TestBuildLexicon:
    def test_below_threshold_absent(self):
        units = ["citation analysis works"] * 3
        lexicon = build_lexicon(units, min_occurrences=4)
        assert len(lexicon) == 0

    def test_binary_counting_within_unit(self):
        units = ["factor. factor. factor. factor. factor."]
        lexicon = build_lexicon(units, min_occurrences=1)
        assert by_term(lexicon)["factor"].occurrence_count == 1
        assert by_term(lexicon)["factor"].unit_counts == {0: 5}

    def test_thesaurus_pools_unit_sets(self):
        units = ["the jif"] * 2 + ["the journal impact factor"] * 3
        lexicon = build_lexicon(units, min_occurrences=1, stoplist={"the"},
                                thesaurus={"jif": "journal impact factor"})
        assert by_term(lexicon)["journal impact factor"].occurrence_count == 5

    def test_thesaurus_cycle_rejected(self):
        with pytest.raises(ConfigError, match="cycle"):
            build_lexicon(["x"], min_occurrences=1, thesaurus={"a": "b", "b": "a"})

    def test_exclusions_apply_after_threshold(self):
        # the lexicon keeps an excluded term; the relevance cut drops it
        units = ["the impact factor"] * 4
        lexicon = build_lexicon(units, min_occurrences=4, stoplist={"the"})
        assert {"impact factor", "factor"} <= set(by_term(lexicon))
        net = count_cooccurrences(units, lexicon)
        selected = select_top_terms(net, relevance_scores(net), 1.0, {"impact factor"})
        assert selected.term_strings == ("factor",)

    def test_stoplist_terms_never_enter(self):
        units = ["the factor grows"]
        lexicon = build_lexicon(units, min_occurrences=1, stoplist={"the"},
                                thesaurus={"grows": "the"})
        assert "the" not in by_term(lexicon)

    def test_author_citations_do_not_become_terms(self):
        units = ["as Moed et al. argued, citation analysis matters"] * 2
        lexicon = build_lexicon(units, min_occurrences=1, stoplist={"as", "argued"})
        assert "moed" not in by_term(lexicon)

    def test_min_occurrences_validated(self):
        with pytest.raises(ConfigError):
            build_lexicon([], min_occurrences=0)

    def test_plural_merge_across_units(self):
        units = ["many factors", "the factor", "more factors"]
        lexicon = build_lexicon(units, min_occurrences=1, stoplist={"many", "the", "more"})
        assert by_term(lexicon)["factor"].occurrence_count == 3

    def test_occurrence_counts_bounded_by_units(self):
        units = ["impact factor impact factor"] * 6
        lexicon = build_lexicon(units, min_occurrences=1)
        assert all(e.occurrence_count <= len(units) for e in lexicon)

    def test_removing_a_unit_never_raises_counts(self):
        units = ["citation analysis and impact", "impact factor analysis",
                 "citation impact", "analysis of citation analysis"]
        full = by_term(build_lexicon(units, min_occurrences=1, stoplist={"and", "of"}))
        reduced = build_lexicon(units[:-1], min_occurrences=1, stoplist={"and", "of"})
        for entry in reduced:
            if entry.term in full:
                assert entry.occurrence_count <= full[entry.term].occurrence_count

    def test_brute_force_small_corpora(self):
        # naive scan: per unit, count each distinct normalized candidate once
        units = [
            "citation analysis measures impact",
            "the impact factor. citation analysis again",
            "journal impact factor and citation counts",
            "counting citations by hand",
            "impact impact impact",
        ]
        stop = {"the", "and", "by", "again"}
        lexicon = build_lexicon(units, min_occurrences=1, stoplist=stop)

        tokenized = [_tokenize(strip_citation_authors(u)) for u in units]
        vocabulary = {token for tokens in tokenized for token in tokens}
        expected = Counter()
        for tokens in tokenized:
            expected.update(set(candidates_of(tokens, stop, vocabulary)))
        assert {e.term: e.occurrence_count for e in lexicon} == dict(expected)

    def test_repeated_tokens_share_one_string(self):
        # 2,000 units of one text hold 44,000 tokens over 19 distinct words;
        # a string object per token alone took 5.9 MB at the peak
        text = ("Keyword maps of citing titles and abstracts show research topics. Citation contexts "
                "describe the cited work. Co-word analysis compares the three maps.")
        units = [text] * 2000
        build_lexicon(units[:4])  # lazy set-up outside the measurement
        tracemalloc.start()
        try:
            lexicon = build_lexicon(units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert by_term(lexicon)["maps"].occurrence_count == 2000
        assert peak < 4_000_000


class TestRunBreaks:
    # a break ends a candidate run in the lexicon, and leaves one mark among the tokens
    @pytest.mark.parametrize("prefix", ["", "\u00fcber "], ids=["ascii", "non-ascii"])
    @pytest.mark.parametrize("breaker", [*RUN_BREAKERS, " - ", " -- ", " \u2013 ", " \u2014 ", " \u2014\u2014 ",
                                         "\n\u2013\t"])
    def test_breaker_ends_a_run(self, breaker, prefix):
        text = f"{prefix}citation analysis{breaker}peer review"
        terms = set(by_term(build_lexicon([text], min_occurrences=1)))
        assert {"citation analysis", "peer review", "analysis", "review"} <= terms
        assert not [term for term in terms if "analysis peer" in term]
        assert _tokenize(text) == [*prefix.split(), "citation", "analysis", _RUN_BREAK, "peer", "review"]

    @pytest.mark.parametrize("prefix", ["", "\u00fcber "], ids=["ascii", "non-ascii"])
    @pytest.mark.parametrize("possessive", ["'s", "\u2019s", "'S"])
    def test_possessive_ends_a_run(self, possessive, prefix):
        text = f"{prefix}the journal{possessive} impact factor"
        terms = set(by_term(build_lexicon([text], min_occurrences=1, stoplist={"the"})))
        assert {"journal", "impact factor", "factor"} <= terms
        assert not [term for term in terms if term.startswith("s ") or " s " in term]
        assert _tokenize(text) == [*prefix.split(), "the", "journal", _RUN_BREAK, "impact", "factor"]

    @pytest.mark.parametrize("text, term", [
        ("co-word analysis", "co-word analysis"),  # a hyphen inside a token
        ("citation- analysis", "citation analysis"),  # a hyphen at a token's edge
        ("O'Sullivan analysis", "o sullivan analysis"),  # an apostrophe that is not a possessive
        ("the journals' impact", "journals impact"),
        ("core\u2013periphery structure", "core periphery structure"),  # en and em dashes inside a word
        ("science\u2014technology linkage", "science technology linkage"),
        ("citation \u2013analysis", "citation analysis"),  # a dash on one side only
        ("citation\u2014 analysis", "citation analysis"),
    ])
    def test_other_hyphens_and_apostrophes_keep_the_run(self, text, term):
        assert term in by_term(build_lexicon([text], min_occurrences=1, stoplist={"the"}))

    # words, stopwords, numbers, plurals, authors, and every break: sentence ends,
    # run breakers, spaced and unspaced dashes, possessives
    UNIT_PIECES = st.sampled_from([
        "citation", "citations", "factor", "factors", "impact", "the", "of", "2010", "h-index", "\u0160ubelj",
        "Moed et al.", "e.g.", ".", ";", ",", ":", "(", ")", "/", '"', "-", " - ", "\u2013", " \u2013 ", "\u2014",
        "'s", "\u2019s", "'", " ", "\n",
    ])

    @given(st.lists(st.lists(UNIT_PIECES, max_size=12).map("".join), min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_unit_candidates_are_what_the_lexicon_counts(self, units):
        stoplist = {"the", "of"}
        vocabulary = {token for text in units for token in _tokenize(strip_citation_authors(text))}
        counts: dict[str, dict[int, int]] = {}
        for position, text in enumerate(units):
            for term, times in Counter(unit_candidates(text, stoplist, vocabulary)).items():
                counts.setdefault(term, {})[position] = times
        expected = [(term, list(counts[term].items())) for term in sorted(counts)]
        assert entries(build_lexicon(units, 1, stoplist=stoplist)) == expected

    def test_lowercasing_follows_the_apostrophe_step(self):
        # "’" is case-ignorable, so lowercasing "ΟΔΟΣ’s" whole would give a medial "σ";
        # "İ" lowercases to two characters
        units = ["ΟΔΟΣ\u2019s δρόμος", "the ΟΔΟΣ"]
        assert entries(build_lexicon(units, 2)) == [("οδος", [(0, 1), (1, 1)])]
        assert _tokenize(units[0]) == ["οδος", _RUN_BREAK, "δρόμος"]
        assert unit_candidates("\u0130stanbul\u2019s harbour \u2013 a port", ()) == [
            "i\u0307stanbul", "harbour", "a port", "port"]

    def test_unit_candidates_keep_a_comma_break(self):
        text = "citation analysis, peer review"
        assert unit_candidates(text, ()) == ["citation analysis", "analysis", "peer review", "review"]

    # every break leaves the one mark that a comma leaves
    @pytest.mark.parametrize("separator", [*(f"{end} " for end in SENTENCE_BREAKERS), *RUN_BREAKERS,
                                           " - ", " \u2013 ", " \u2014 ", "'s ", "\u2019s ", "'S "])
    def test_every_break_gives_what_a_comma_gives(self, separator):
        text, comma = f"citation analysis{separator}peer review", "citation analysis, peer review"
        assert unit_candidates(text, ()) == unit_candidates(comma, ())
        assert entries(build_lexicon([text], 1)) == entries(build_lexicon([comma], 1))


# The lexicon as built before units were tokenized in one pass: sentences by the
# character loops above, candidates token by token, and the counting as it was.
def _reference_build_lexicon(units, min_occurrences, thesaurus, stoplist):
    stopset = frozenset(stoplist)
    canon = resolve_thesaurus(thesaurus)
    segmented = [_oracle_segment(_ASCII_CAPITAL_CITATION.sub(" ", text)) for text in units]
    vocabulary = {token for sentences in segmented for sentence in sentences for token in sentence}
    counts: dict[str, dict[int, int]] = {}
    for position, sentences in enumerate(segmented):
        candidates = [term for sentence in sentences
                      for term in _oracle_extract_candidates(sentence, stopset, vocabulary)]
        for term, times in Counter(candidates).items():
            if term in canon:
                term = canon[term]
            if term in stopset:
                continue
            per_term = counts.setdefault(term, {})
            per_term[position] = per_term.get(position, 0) + times
    kept = sorted(term for term, per_term in counts.items() if len(per_term) >= min_occurrences)
    return tuple(LexiconEntry(term, counts[term]) for term in kept)


# ASCII and non-ASCII words, stopwords, numbers, plurals, guards and authors, but no
# run breaker: no punctuation inside a sentence, no dash standing alone, no apostrophe.
# "et al" comes only after an ASCII capital, the one name that was stripped before.
REFERENCE_WORDS = st.sampled_from([
    "citation", "citations", "Citation", "factor", "factors", "impact", "analysis", "index", "indexes",
    "h-index", "-x", "y-", "CO-WORD", "the", "of", "and", "2010", "3.5", "e.g.", "Moed et al.",
    "Fig.", "no.", "na\u00efve", "\u0160ubelj", "\u0130ndex", "\u03a3\u0391\u03a3", "\u212a", "x_y",
    ".", "?", "!", ";", "\n", "\x1c",
])
REFERENCE_THESAURUS = {"impact factor": "jif", "citation analysis": "bibliometrics", "index": "the",
                       "na\u00efve": "naive"}


def entries(lexicon) -> list:
    """Each entry with its unit_counts in their order, which dict equality would ignore."""
    return [(entry.term, list(entry.unit_counts.items())) for entry in lexicon]


class TestLexiconMatchesReference:
    @given(st.lists(st.lists(REFERENCE_WORDS, max_size=12).map(" ".join), min_size=1, max_size=6),
           st.integers(1, 3), st.sampled_from([{}, REFERENCE_THESAURUS]))
    @settings(max_examples=300, deadline=None)
    def test_entry_for_entry(self, units, min_occurrences, thesaurus):
        stoplist = {"the", "of", "and"}
        built = build_lexicon(units, min_occurrences, thesaurus, stoplist)
        assert entries(built) == entries(_reference_build_lexicon(units, min_occurrences, thesaurus, stoplist))

    def test_on_bundled_corpora(self, demo_corpus, planted_corpus):
        from citemap.corpus import load_corpus

        stoplist = _resolve_word_lists(PipelineConfig()).stoplist
        for path in (demo_corpus, planted_corpus):
            docs, contexts = load_corpus(path)
            for units in (make_units(docs, TITLE_ABSTRACT), make_units(contexts, CITATION_CONTEXT)):
                expected = _reference_build_lexicon(units, 2, {}, stoplist)
                assert entries(build_lexicon(units, 2, {}, stoplist)) == entries(expected)


WORDS = st.sampled_from(["citation", "impact", "factor", "index", "journal", "review", "the", "of"])
UNIT_TEXTS = st.lists(st.lists(WORDS, min_size=1, max_size=6).map(" ".join), min_size=1, max_size=8)


class TestLexiconProperties:
    @given(UNIT_TEXTS)
    @settings(max_examples=60, deadline=None)
    def test_unit_order_invariance(self, texts):
        stop = {"the", "of"}
        forward = build_lexicon(texts, min_occurrences=1, stoplist=stop)
        backward = build_lexicon(list(reversed(texts)), min_occurrences=1, stoplist=stop)
        last = len(texts) - 1  # position k of the backward run is position last - k of the forward one
        assert {e.term: e.unit_counts for e in forward} == {
            e.term: {last - k: times for k, times in e.unit_counts.items()} for e in backward
        }
        assert [e.term for e in forward] == [e.term for e in backward]

    @given(UNIT_TEXTS)
    @settings(max_examples=60, deadline=None)
    def test_determinism_and_bounds(self, texts):
        first = build_lexicon(texts, min_occurrences=1, stoplist={"the", "of"})
        second = build_lexicon(texts, min_occurrences=1, stoplist={"the", "of"})
        assert {e.term: e.unit_counts for e in first} == {e.term: e.unit_counts for e in second}
        assert all(e.occurrence_count <= len(texts) for e in first)
        assert all(list(e.unit_counts) == sorted(e.unit_counts) for e in first)


class TestWordListFiles:
    # a run reads its word lists through the pipeline, which parses and digests the same bytes
    def test_load_word_list(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nthe\nof  # trailing\n\nAnd\n", encoding="utf-8")
        assert _resolve_word_lists(PipelineConfig(stoplist=str(path))).stoplist == {"the", "of", "and"}

    def test_load_thesaurus(self, tmp_path):
        path = tmp_path / "thes.tsv"
        path.write_text("JIF\tjournal impact factor\nsci\tscience citation index\n", encoding="utf-8")
        mapping = _resolve_word_lists(PipelineConfig(thesaurus=str(path))).thesaurus
        assert mapping["jif"] == "journal impact factor"

    def test_malformed_thesaurus(self, tmp_path):
        path = tmp_path / "thes.tsv"
        path.write_text("only-one-column\n", encoding="utf-8")
        from citemap.errors import ParseError
        with pytest.raises(ParseError, match=":1:"):
            _resolve_word_lists(PipelineConfig(thesaurus=str(path)))

    @pytest.mark.parametrize("name, content", [
        ("stoplist", "citation\nanalysis\n"),
        ("exclusions", "citation analysis\npeer review\n"),
        ("thesaurus", "jif\tjournal impact factor\nsci\tscience citation index\n"),
    ])
    def test_byte_order_mark_is_no_part_of_the_first_entry(self, tmp_path, name, content):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(content.encode("utf-8"))
        marked.write_bytes(content.encode("utf-8-sig"))
        without, with_bom = (_resolve_word_lists(PipelineConfig(**{name: str(path)})) for path in (plain, marked))
        assert with_bom.digests[name] != without.digests[name]  # the digest is of the file's bytes
        assert replace(with_bom, digests=without.digests) == without

    def test_resolve_thesaurus_chains(self):
        resolved = resolve_thesaurus({"a": "b", "b": "c"})
        assert resolved == {"a": "c", "b": "c"}

    def test_defaults_load(self):
        words = _resolve_word_lists(PipelineConfig())
        assert {"the", "of", "and", "et", "al"} <= words.stoplist
        assert "practical implications" in words.exclusions
