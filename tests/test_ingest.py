"""Loader tests: happy paths, every error fixture, and round-trips."""

import csv
import gc
import random
import tracemalloc

import pytest

from essayscore import (
    EssayScoreError,
    HumanGrade,
    QuestionSpec,
    RawEssay,
    load_answers,
    load_grades,
    load_lexicons,
    load_model,
    preprocess_pipeline,
)
from essayscore.ingest import ANSWERS_HEADER, NORMALIZATION_HEADER, _read_rows


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadAnswers:
    def test_single_row(self, tmp_path):
        p = write(
            tmp_path / "a.csv",
            'student_id,question_id,answer_text\ns1,q1,"Pancasila adalah dasar negara"\n',
        )
        assert load_answers(p) == [
            RawEssay("s1", "q1", "Pancasila adalah dasar negara")
        ]

    def test_duplicate_key(self, tmp_path):
        p = write(
            tmp_path / "a.csv",
            "student_id,question_id,answer_text\ns1,q1,a\ns1,q1,b\n",
        )
        with pytest.raises(EssayScoreError, match="line 3: duplicate answer"):
            load_answers(p)

    def test_header_only_is_empty_corpus(self, tmp_path):
        p = write(tmp_path / "a.csv", "student_id,question_id,answer_text\n")
        assert load_answers(p) == []

    def test_empty_answer_text_is_legal(self, tmp_path):
        p = write(tmp_path / "a.csv", "student_id,question_id,answer_text\ns1,q1,\n")
        assert load_answers(p)[0].text == ""

    def test_empty_id_rejected(self, tmp_path):
        p = write(tmp_path / "a.csv", "student_id,question_id,answer_text\n,q1,x\n")
        with pytest.raises(EssayScoreError, match="line 2: empty student_id"):
            load_answers(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EssayScoreError, match="input file not found"):
            load_answers(tmp_path / "none.csv")

    def test_wrong_header(self, tmp_path):
        p = write(tmp_path / "a.csv", "sid,qid,text\ns1,q1,x\n")
        with pytest.raises(EssayScoreError, match="expected header"):
            load_answers(p)

    def test_wrong_field_count(self, tmp_path):
        p = write(tmp_path / "a.csv", "student_id,question_id,answer_text\ns1,q1\n")
        with pytest.raises(EssayScoreError, match="line 2: expected 3 fields, got 2"):
            load_answers(p)

    def test_unbalanced_quote(self, tmp_path):
        p = write(
            tmp_path / "a.csv",
            'student_id,question_id,answer_text\ns1,q1,"abc\ns2,q2,def\n',
        )
        with pytest.raises(EssayScoreError, match="unexpected end of data"):
            load_answers(p)

    @pytest.mark.parametrize(
        "last, message",
        [
            ('s2,q1,"bad"x\n', "line 3: ',' expected after '\"'"),
            ('s2,q1,"never\nclosed\n', "line 3: unexpected end of data"),
        ],
    )
    def test_csv_syntax_error_names_line(self, tmp_path, last, message):
        p = write(tmp_path / "a.csv", "student_id,question_id,answer_text\ns1,q1,ok\n" + last)
        with pytest.raises(EssayScoreError) as info:
            load_answers(p)
        assert str(info.value) == f"{p}: {message}"

    def test_csv_field_size_limit_restored(self, data_dir, tmp_path):
        # the limit is process-wide; loading must leave the caller's in place
        bad = write(tmp_path / "a.csv", 'student_id,question_id,answer_text\ns1,q1,"x\n')
        old = csv.field_size_limit(12345)
        try:
            load_answers(data_dir / "answers.csv")
            assert csv.field_size_limit() == 12345
            with pytest.raises(EssayScoreError):
                load_answers(bad)
            assert csv.field_size_limit() == 12345
        finally:
            csv.field_size_limit(old)

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b"student_id,question_id,answer_text\r\ns1,q1,halo\r\n")
        assert load_answers(p) == [RawEssay("s1", "q1", "halo")]

    def test_order_preserved(self, tmp_path):
        rows = "".join(f"s{i},q1,text {i}\n" for i in (3, 1, 2))
        p = write(tmp_path / "a.csv", "student_id,question_id,answer_text\n" + rows)
        assert [e.student_id for e in load_answers(p)] == ["s3", "s1", "s2"]


class TestLoadMemory:
    def test_peak_close_to_what_is_kept(self, tmp_path):
        # rows and raw ids are dropped as each row is read, not held beside
        # the records until the whole file is loaded
        rng = random.Random(0)
        words = [f"kata{k}" for k in range(500)]
        rows = "".join(
            f"s{i // 5},q{i % 5},{' '.join(rng.choices(words, k=40))[:280]}\n"
            for i in range(10_000)
        )
        p = write(tmp_path / "a.csv", "student_id,question_id,answer_text\n" + rows)
        del rows
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = load_answers(p)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 10_000
        assert peak - before <= 1.33 * (kept - before)


class TestLoadModel:
    def test_single_row(self, tmp_path):
        p = write(
            tmp_path / "m.csv",
            "question_id,model_answer,weight\nq1,dasar negara indonesia,20\n",
        )
        assert load_model(p) == [QuestionSpec("q1", "dasar negara indonesia", 20.0)]

    def test_negative_weight(self, tmp_path):
        p = write(tmp_path / "m.csv", "question_id,model_answer,weight\nq1,x,-5\n")
        with pytest.raises(EssayScoreError, match="weight -5.0 is negative"):
            load_model(p)

    def test_five_questions_total_weight(self, tmp_path):
        rows = "".join(f"q{i},jawaban {i},20\n" for i in range(1, 6))
        p = write(tmp_path / "m.csv", "question_id,model_answer,weight\n" + rows)
        specs = load_model(p)
        assert len(specs) == 5
        assert sum(s.weight for s in specs) == 100.0

    def test_empty_model_answer(self, tmp_path):
        p = write(tmp_path / "m.csv", "question_id,model_answer,weight\nq1,,20\n")
        with pytest.raises(EssayScoreError, match="empty model answer"):
            load_model(p)

    def test_duplicate_question(self, tmp_path):
        p = write(
            tmp_path / "m.csv", "question_id,model_answer,weight\nq1,a,20\nq1,b,30\n"
        )
        with pytest.raises(EssayScoreError, match="duplicate question 'q1'"):
            load_model(p)

    def test_unparseable_weight(self, tmp_path):
        p = write(tmp_path / "m.csv", "question_id,model_answer,weight\nq1,x,dua\n")
        with pytest.raises(EssayScoreError, match="weight 'dua' is not a number"):
            load_model(p)


class TestLoadGrades:
    def test_single_row(self, tmp_path):
        p = write(tmp_path / "g.csv", "student_id,question_id,score\ns1,q1,18\n")
        assert load_grades(p) == [HumanGrade("s1", "q1", 18.0)]

    def test_negative_score(self, tmp_path):
        p = write(tmp_path / "g.csv", "student_id,question_id,score\ns1,q1,-1\n")
        with pytest.raises(EssayScoreError, match="score -1.0 is negative"):
            load_grades(p)

    def test_thirty_students_five_questions(self, tmp_path):
        rows = "".join(
            f"s{s},q{q},{q * 3}\n" for s in range(1, 31) for q in range(1, 6)
        )
        p = write(tmp_path / "g.csv", "student_id,question_id,score\n" + rows)
        assert len(load_grades(p)) == 150

    def test_duplicate_key(self, tmp_path):
        p = write(
            tmp_path / "g.csv", "student_id,question_id,score\ns1,q1,5\ns1,q1,6\n"
        )
        with pytest.raises(EssayScoreError, match="line 3: duplicate grade"):
            load_grades(p)


@pytest.mark.parametrize(
    "loader, header, column",
    [
        (load_model, "question_id,model_answer,weight", "weight"),
        (load_grades, "student_id,question_id,score", "score"),
    ],
    ids=["model", "grades"],
)
def test_column_summing_past_largest_float(tmp_path, loader, header, column):
    # every value is finite, but the totals built from them would not be
    p = write(tmp_path / "f.csv", f"{header}\na,b,1e308\nc,d,1e308\n")
    with pytest.raises(EssayScoreError) as exc:
        loader(p)
    assert str(exc.value) == f"{p}: {column} column sums past the largest float"
    write(p, f"{header}\na,b,1e308\nc,d,7e307\n")
    assert len(loader(p)) == 2


@pytest.mark.parametrize(
    "loader, header, column",
    [
        (load_model, "question_id,model_answer,weight", "weight"),
        (load_grades, "student_id,question_id,score", "score"),
    ],
    ids=["model", "grades"],
)
class TestNumberColumn:
    """Both number columns go through one check, with one message each."""

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_not_finite(self, tmp_path, loader, header, column, text):
        p = write(tmp_path / "f.csv", f"{header}\na,b,1\nc,d,{text}\n")
        with pytest.raises(EssayScoreError) as exc:
            loader(p)
        assert str(exc.value) == f"{p}: line 3: {column} '{text}' is not finite"

    def test_negative(self, tmp_path, loader, header, column):
        p = write(tmp_path / "f.csv", f"{header}\na,b,1\nc,d,-1\n")
        with pytest.raises(EssayScoreError) as exc:
            loader(p)
        assert str(exc.value) == f"{p}: line 3: {column} -1.0 is negative"

    def test_negative_checked_before_the_rest_of_the_row(self, tmp_path, loader, header, column):
        # line 3 also repeats line 2's key, which is reported only after the sign
        p = write(tmp_path / "f.csv", f"{header}\na,b,1\na,b,-2\n")
        with pytest.raises(EssayScoreError) as exc:
            loader(p)
        assert str(exc.value) == f"{p}: line 3: {column} -2.0 is negative"


class TestEmptyKey:
    """All three loaders reject an empty key cell with one message shape."""

    @pytest.mark.parametrize(
        "loader, text, names",
        [
            (load_answers, "student_id,question_id,answer_text\ns1,q1,x\ns2,,y\n",
             "student_id or question_id"),
            (load_model, "question_id,model_answer,weight\nq1,x,5\n,extra model,3\n",
             "question_id"),
            (load_grades, "student_id,question_id,score\ns1,q1,5\n,q1,5\n",
             "student_id or question_id"),
        ],
        ids=["answers", "model", "grades"],
    )
    def test_rejected_naming_the_line(self, tmp_path, loader, text, names):
        p = write(tmp_path / "f.csv", text)
        with pytest.raises(EssayScoreError) as exc:
            loader(p)
        assert str(exc.value) == f"{p}: line 3: empty {names}"

    @pytest.mark.parametrize(
        "loader, text, column",
        [
            (load_model, "question_id,model_answer,weight\n,x,-1\n", "weight"),
            (load_grades, "student_id,question_id,score\ns1,,-1\n", "score"),
        ],
        ids=["model", "grades"],
    )
    def test_number_checked_first(self, tmp_path, loader, text, column):
        p = write(tmp_path / "f.csv", text)
        with pytest.raises(EssayScoreError) as exc:
            loader(p)
        assert str(exc.value) == f"{p}: line 2: {column} -1.0 is negative"


class TestErrorRanking:
    """With several faults in one file, the loader reports the first fault in file order.

    The fault may be a CSV syntax error, a wrong header, a row with the
    wrong field count or a problem with a row's content; reading stops
    there.
    """

    @pytest.mark.parametrize(
        "loader, text, message",
        [
            (
                load_answers,
                "student_id,question_id,answer_text\ns1,q1,a\ns1,q1,b\ns2,q1,c\ns3,q1\n",
                "line 3: duplicate answer for ('s1', 'q1')",
            ),
            (
                load_answers,
                'student_id,question_id,answer_text\n,q1,a\ns2,q1,b\ns3,q1,"bad"x\n',
                "line 2: empty student_id or question_id",
            ),
            (
                load_answers,
                "sid,qid,text\ns1,q1\n",
                "expected header 'student_id,question_id,answer_text', got 'sid,qid,text'",
            ),
            (
                load_answers,
                'sid,qid,text\ns1,q1,a\ns2,q1,"bad"x\n',
                "expected header 'student_id,question_id,answer_text', got 'sid,qid,text'",
            ),
            (
                load_grades,
                "student_id,question_id,score\ns1,q1,x\ns2,q1,5\ns3,q1\n",
                "line 2: score 'x' is not a number",
            ),
            (
                load_grades,
                "student_id,question_id,score\ns1,q1,-1\n,q1,5\n",
                "line 2: score -1.0 is negative",
            ),
        ],
        ids=[
            "duplicate-then-field-count",
            "empty-id-then-syntax",
            "header-then-field-count",
            "header-then-syntax",
            "number-then-field-count",
            "number-then-empty-id",
        ],
    )
    def test_first_ranked_fault_reported(self, tmp_path, loader, text, message):
        p = write(tmp_path / "f.csv", text)
        with pytest.raises(EssayScoreError) as exc:
            loader(p)
        assert str(exc.value) == f"{p}: {message}"

    def test_reading_stops_at_the_first_fault(self, tmp_path):
        # a later CSV syntax error is never read
        text = 'student_id,question_id,answer_text\ns1,q1,a\ns2,q1\ns3,q1,"bad"x\n'
        p = write(tmp_path / "f.csv", text)
        calls = []

        def make(row, line):
            calls.append(line)
            return row

        with pytest.raises(EssayScoreError) as exc:
            _read_rows(p, ANSWERS_HEADER, make)
        assert str(exc.value) == f"{p}: line 3: expected 3 fields, got 2"
        assert calls == [2]


class TestLoadLexicons:
    def test_stopwords_with_comment(self, tmp_path):
        sp = write(tmp_path / "stop.txt", "yang\ndan\n# comment\n\n")
        np_ = write(tmp_path / "norm.csv", "slang,formal\n")
        lex = load_lexicons(sp, np_)
        assert lex.stopwords == {"yang", "dan"}
        assert lex.normalization == {}

    def test_normalization_row(self, tmp_path):
        sp = write(tmp_path / "stop.txt", "")
        np_ = write(tmp_path / "norm.csv", "slang,formal\ngak,tidak\n")
        lex = load_lexicons(sp, np_)
        assert lex.normalization == {"gak": "tidak"}

    def test_multi_token_normalization_entry(self, tmp_path):
        sp = write(tmp_path / "stop.txt", "")
        np_ = write(tmp_path / "norm.csv", 'slang,formal\n"gak tau","tidak tahu"\n')
        with pytest.raises(EssayScoreError, match="'gak tau' must be a single"):
            load_lexicons(sp, np_)

    def test_multi_token_stopword(self, tmp_path):
        sp = write(tmp_path / "stop.txt", "yang dan\n")
        np_ = write(tmp_path / "norm.csv", "slang,formal\n")
        with pytest.raises(EssayScoreError, match="line 1: 'yang dan' must be a single"):
            load_lexicons(sp, np_)

    def test_non_utf8_stopwords(self, tmp_path):
        sp = tmp_path / "stop.txt"
        sp.write_bytes("café\n".encode("latin-1"))
        np_ = write(tmp_path / "norm.csv", "slang,formal\n")
        with pytest.raises(EssayScoreError, match="not valid UTF-8"):
            load_lexicons(sp, np_)

    def test_entries_case_folded(self, tmp_path):
        sp = write(tmp_path / "stop.txt", "Yang\n")
        np_ = write(tmp_path / "norm.csv", "slang,formal\nGak,TIDAK\n")
        lex = load_lexicons(sp, np_)
        assert lex.stopwords == {"yang"}
        assert lex.normalization == {"gak": "tidak"}


def unmatchable_entries(stopwords, normalization):
    """The messages ``load_lexicons`` gives its ``_warn`` hook, in order."""
    messages = []
    load_lexicons(stopwords, normalization, _warn=messages.append)
    return messages


class TestUnmatchableEntries:
    def test_each_named_with_its_file_and_line(self, tmp_path):
        sp = write(tmp_path / "stop.txt", "# c\nyang\ndon't\nGK\nİstanbul\ntidak\n")
        np_ = write(tmp_path / "norm.csv", "slang,formal\nx1,y\ngk,tidak\nİ,i\n")
        lex = load_lexicons(sp, np_)
        # "don't" and "x1" hold non-letters; "gk" is always rewritten to
        # "tidak"; "i̇stanbul" and "i̇" are what "İstanbul" and "İ" fold to
        assert preprocess_pipeline("don't x1 yang GK İstanbul", lex) == ["don", "t", "x"]
        assert unmatchable_entries(sp, np_) == [
            f"{sp}: line 3: stopword \"don't\" can never match: preprocessing never yields it",
            f"{sp}: line 4: stopword 'GK' can never match: preprocessing never yields it",
            f"{np_}: line 2: slang 'x1' can never match: preprocessing never yields it",
        ]

    def test_a_formal_form_can_be_a_stopword(self, tmp_path):
        sp = write(tmp_path / "stop.txt", "x-ray\n")
        np_ = write(tmp_path / "norm.csv", "slang,formal\nxray,x-ray\n")
        lex = load_lexicons(sp, np_)
        assert preprocess_pipeline("xray", lex) == []
        assert unmatchable_entries(sp, np_) == []

    def test_data_has_none(self, data_dir):
        assert unmatchable_entries(data_dir / "stopwords.txt", data_dir / "normalization.csv") == []


class TestIdsShared:
    def test_one_object_per_distinct_id(self, tmp_path):
        rows = "".join(f"s{s},q{q},{s}\n" for s in range(300, 303) for q in range(300, 302))
        for loader, header in (
            (load_answers, "student_id,question_id,answer_text"),
            (load_grades, "student_id,question_id,score"),
        ):
            records = loader(write(tmp_path / "f.csv", f"{header}\n{rows}"))
            ids = [r.student_id for r in records] + [r.question_id for r in records]
            assert len({id(i) for i in ids}) == len(set(ids)) == 5


class TestNonUtf8Position:
    def test_byte_and_line_counted_from_the_start_of_the_file(self, tmp_path):
        lines = ["student_id,question_id,answer_text"]
        lines += [f"s{i},q1,jawaban nomor {i} tentang dasar negara" for i in range(1, 1001)]
        data = "\n".join(lines).encode()
        at = data.index(b"s699,")  # line 700
        p = tmp_path / "a.csv"
        p.write_bytes(data[:at + 4] + b"\xff" + data[at + 4:])
        assert at > 8192  # past the text reader's first decode chunk
        with pytest.raises(EssayScoreError) as exc:
            load_answers(p)
        assert str(exc.value) == f"{p}: not valid UTF-8 (byte 0xff on line 700)"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_lines_end_as_the_reader_ends_them(self, tmp_path, newline):
        p = tmp_path / "stop.txt"
        p.write_bytes(newline.join([b"yang", b"dan", b"caf\xe9", b"di"]))
        with pytest.raises(EssayScoreError) as exc:
            load_lexicons(p, write(tmp_path / "norm.csv", "slang,formal\n"))
        assert str(exc.value) == f"{p}: not valid UTF-8 (byte 0xe9 on line 3)"


class TestPathInMessages:
    """Every diagnostic names its file the same way, as a normalized Path."""

    @pytest.mark.parametrize(
        "loader, name, text",
        [
            (load_answers, "a.csv", "student_id,question_id,answer_text\ns1,q1,a\ns1,q1,b\n"),
            (load_model, "m.csv", "question_id,model_answer,weight\nq1,x,dua\nq2,y,1\n"),
            (load_grades, "g.csv", "student_id,question_id,score\ns1,q1,5\ns1,q1,x\n"),
        ],
        ids=["answers", "model", "grades"],
    )
    def test_row_error(self, tmp_path, loader, name, text):
        write(tmp_path / name, text)
        with pytest.raises(EssayScoreError) as exc:
            loader(f"{tmp_path}//./{name}")
        assert str(exc.value).startswith(f"{tmp_path / name}: line ")
        with pytest.raises(EssayScoreError, match="input file not found") as exc:
            loader(f"{tmp_path}//./absent.csv")
        assert str(exc.value).endswith(str(tmp_path / "absent.csv"))

    def test_lexicon_error(self, tmp_path):
        write(tmp_path / "stop.txt", "")
        write(tmp_path / "norm.csv", 'slang,formal\n"gak tau",tidak\n')
        with pytest.raises(EssayScoreError) as exc:
            load_lexicons(f"{tmp_path}//./stop.txt", f"{tmp_path}//./norm.csv")
        assert str(exc.value).startswith(f"{tmp_path / 'norm.csv'}: line 2: ")


class TestRoundTrip:
    def test_answers_round_trip(self, tmp_path, corpus):
        answers = corpus[0]
        p = tmp_path / "rt.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["student_id", "question_id", "answer_text"])
            w.writerows((a.student_id, a.question_id, a.text) for a in answers)
        assert load_answers(p) == answers

    def test_model_round_trip(self, tmp_path, corpus):
        questions = corpus[1]
        p = tmp_path / "rt.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["question_id", "model_answer", "weight"])
            w.writerows(
                (q.question_id, q.model_answer, repr(q.weight)) for q in questions
            )
        assert load_model(p) == questions

    def test_grades_round_trip(self, tmp_path, corpus):
        grades = corpus[2]
        p = tmp_path / "rt.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["student_id", "question_id", "score"])
            w.writerows(
                (g.student_id, g.question_id, repr(g.score)) for g in grades
            )
        assert load_grades(p) == grades

    def test_loading_is_deterministic(self, data_dir):
        first = load_answers(data_dir / "answers.csv")
        second = load_answers(data_dir / "answers.csv")
        assert first == second


class TestLineAfterMultiLineField:
    """A row's line is the physical line it starts on, even after a quoted field spanning lines."""

    @pytest.mark.parametrize(
        "loader, text, message",
        [
            (
                load_answers,
                'student_id,question_id,answer_text\ns1,q1,"one\ntwo\nthree\nfour"\n'
                "s2,q1,x\ns2,q1,y\n",
                "line 7: duplicate answer for ('s2', 'q1')",
            ),
            (
                load_model,
                'question_id,model_answer,weight\nq1,"first\r\nparagraph",1\nq2,x,dua\n',
                "line 4: weight 'dua' is not a number",
            ),
            (
                load_grades,
                'student_id,question_id,score\n"s\n1",q1,5\ns2,q1\n',
                "line 4: expected 3 fields, got 2",
            ),
        ],
        ids=["answers", "model", "grades"],
    )
    def test_row_error(self, tmp_path, loader, text, message):
        p = write(tmp_path / "f.csv", text)
        with pytest.raises(EssayScoreError) as exc:
            loader(p)
        assert str(exc.value) == f"{p}: {message}"

    def test_normalization(self, tmp_path):
        np_ = write(tmp_path / "norm.csv", 'slang,formal\n"gak\ntau",tidak\nx,y,z\n')
        with pytest.raises(EssayScoreError) as exc:
            _read_rows(np_, NORMALIZATION_HEADER, lambda row, line: line)
        assert str(exc.value) == f"{np_}: line 4: expected 2 fields, got 3"

    def test_each_records_line_kept(self, tmp_path):
        p = write(
            tmp_path / "f.csv",
            'student_id,question_id,answer_text\ns1,q1,"one\ntwo"\ns2,q1,x\r\ns3,q1,y\n',
        )
        answers = load_answers(p)
        assert [a.student_id for a in answers] == ["s1", "s2", "s3"]
        assert list(answers.lines) == [2, 4, 5]

    @pytest.mark.parametrize(
        "change",
        [
            "r[0] = r[2]", "del r[0]", "r += r[:1]", "r *= 2", "r.append(r[0])",
            "r.extend(r[:1])", "r.insert(0, r[2])", "r.pop()", "r.remove(r[0])", "r.clear()",
            "r.sort(reverse=True)", "r.reverse()",
        ],
    )
    def test_any_in_place_change_forgets_the_lines(self, tmp_path, change):
        p = write(tmp_path / "f.csv", "student_id,question_id,answer_text\ns1,q1,x\ns2,q1,y\ns3,q1,z\n")
        rows, plain = load_answers(p), list(load_answers(p))
        exec(change, {"r": rows})
        exec(change, {"r": plain})
        assert rows == plain
        assert rows.lines is None
