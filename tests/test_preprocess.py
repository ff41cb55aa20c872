"""Preprocessing stage tests, including pipeline-level properties."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from essayscore import (
    Lexicons,
    case_fold,
    clean_text,
    normalize_tokens,
    preprocess_pipeline,
    remove_stopwords,
    tokenize,
)

# Lowercase-letter words over a small alphabet keep lexicon strategies fast.
words = st.text(alphabet="abcdef", min_size=1, max_size=6)


def safe_lexicons() -> st.SearchStrategy[Lexicons]:
    """Lexicons whose normalization targets are neither stopwords nor keys,
    the precondition for pipeline idempotence."""

    def build(stopwords, mapping):
        keys = set(mapping)
        cleaned = {
            k: v for k, v in mapping.items() if v not in keys and v not in stopwords
        }
        return Lexicons(
            stopwords=frozenset(stopwords - keys), normalization=cleaned
        )

    return st.builds(
        build,
        st.sets(words, max_size=5),
        st.dictionaries(words, words, max_size=5),
    )


EMPTY = Lexicons()


class TestCleanText:
    def test_punctuation_digits_and_space_runs(self):
        assert clean_text("Pancasila, adalah!!  dasar 1945") == "Pancasila adalah dasar"

    def test_empty(self):
        assert clean_text("") == ""

    def test_identity_on_clean_input(self):
        assert clean_text("abc") == "abc"

    @given(st.text())
    def test_output_is_letters_separated_by_single_spaces(self, raw):
        out = clean_text(raw)
        if out:
            parts = out.split(" ")
            assert all(parts)
            assert all(ch.isalpha() for part in parts for ch in part)

    @given(st.text())
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once

    @given(st.text())
    @example("x\u00b2y")  # superscript two: a digit, not a letter
    @example("\u0661\u0662\u0663 angka")  # Arabic-Indic digits
    @example("cafe\u0301 na\u0308ive")  # combining marks are not letters
    @example("\U0001d400\U0001d401 \U00020000")  # astral-plane letters
    def test_matches_per_character_rule(self, raw):
        kept = "".join(ch if ch.isalpha() else " " for ch in raw)
        assert clean_text(raw) == " ".join(kept.split())


class TestCaseFold:
    def test_basic(self):
        assert case_fold("Pancasila") == "pancasila"

    def test_identity(self):
        assert case_fold("abc") == "abc"

    def test_mixed(self):
        assert case_fold("INDONESIA Raya") == "indonesia raya"

    @given(st.text())
    def test_idempotent(self, s):
        assert case_fold(case_fold(s)) == case_fold(s)


class TestTokenize:
    def test_basic(self):
        assert tokenize("ini adalah contoh") == ["ini", "adalah", "contoh"]

    def test_empty(self):
        assert tokenize("") == []

    def test_single(self):
        assert tokenize("satu") == ["satu"]


class TestNormalizeTokens:
    def test_lookup(self):
        lex = Lexicons(normalization={"gak": "tidak"})
        assert normalize_tokens(["gak", "tahu"], lex) == ["tidak", "tahu"]

    def test_identity_with_empty_map(self):
        assert normalize_tokens(["ini", "adalah"], EMPTY) == ["ini", "adalah"]

    def test_every_occurrence_replaced(self):
        lex = Lexicons(normalization={"a": "x"})
        assert normalize_tokens(["a", "b", "a"], lex) == ["x", "b", "x"]

    @given(st.lists(words), safe_lexicons())
    def test_length_preserved(self, tokens, lex):
        assert len(normalize_tokens(tokens, lex)) == len(tokens)


class TestRemoveStopwords:
    def test_filter(self):
        lex = Lexicons(stopwords=frozenset({"adalah"}))
        assert remove_stopwords(["ini", "adalah", "contoh"], lex) == ["ini", "contoh"]

    def test_all_removed(self):
        lex = Lexicons(stopwords=frozenset({"yang", "dan"}))
        assert remove_stopwords(["yang", "dan"], lex) == []

    def test_identity_with_empty_set(self):
        assert remove_stopwords(["contoh"], EMPTY) == ["contoh"]

    @given(st.lists(words), safe_lexicons())
    def test_never_longer_and_order_preserved(self, tokens, lex):
        out = remove_stopwords(tokens, lex)
        assert len(out) <= len(tokens)
        survivors = [t for t in tokens if t not in lex.stopwords]
        assert out == survivors


class TestPipeline:
    def test_slang_and_stopword_fixture(self):
        lex = Lexicons(
            stopwords=frozenset({"pak"}), normalization={"gak": "tidak"}
        )
        assert preprocess_pipeline("Gak  TAHU, pak!!", lex) == ["tidak", "tahu"]

    def test_empty(self):
        assert preprocess_pipeline("", EMPTY) == []

    def test_digits_only_vanish(self):
        assert preprocess_pipeline("123 456", EMPTY) == []

    def test_equals_composition_of_stages(self):
        lex = Lexicons(
            stopwords=frozenset({"yang"}), normalization={"yg": "yang"}
        )
        raw = "Dasar yg utama, yaitu: Pancasila (1945)!"
        composed = remove_stopwords(
            normalize_tokens(tokenize(case_fold(clean_text(raw))), lex), lex
        )
        assert preprocess_pipeline(raw, lex) == composed

    @given(st.text(alphabet="abcdef XY.,!?7-", max_size=60), safe_lexicons())
    @settings(max_examples=200)
    def test_idempotent_over_rejoined_output(self, raw, lex):
        once = preprocess_pipeline(raw, lex)
        again = preprocess_pipeline(" ".join(once), lex)
        assert again == once

    @given(st.text())
    def test_tokens_are_nonempty_and_whitespace_free(self, raw):
        for tok in preprocess_pipeline(raw, EMPTY):
            assert tok
            assert not any(ch.isspace() for ch in tok)
            assert tok == tok.lower()
