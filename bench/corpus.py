"""Deterministic synthetic corpora for the benchmark.

``write_corpus(directory, shape, seed)`` writes the five input files the
``essayscore`` CLI reads (``answers.csv``, ``model.csv``, ``grades.csv``,
``stopwords.txt``, ``normalization.csv``). Everything is drawn from one
``random.Random(seed)``, so one seed always gives the same bytes.

Every word is made of lowercase ASCII letters only. ``clean_text`` turns
digits into spaces, so a token such as ``kata123`` would collapse to
``kata`` and drive every idf to 0. Answers are built from runs copied out
of the model answer, slang keys from the generated normalization map,
stopwords and off-topic words, and then given random capitals and
punctuation, so that each of the five preprocessing stages and every
n-gram size has real work to do.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

_SYLLABLES = [c + v for c in "bcdfghjklmnprstwy" for v in "aeiou"]
_PUNCTUATION = ",.;:!?"
_BRACKETS = ("()", '""', "''")


@dataclass(frozen=True)
class Shape:
    """Sizes of one corpus; the word counts are per document."""

    students: int
    questions: int
    answer_words: int
    model_words: int
    vocabulary: int = 4000
    stopwords: int = 40
    slang_share: float = 0.2

    def scaled(self, students: int, words: float) -> "Shape":
        """The same shape with fewer students and documents ``words`` times as long."""
        return Shape(
            students=students,
            questions=self.questions,
            answer_words=max(8, round(self.answer_words * words)),
            model_words=max(8, round(self.model_words * words)),
            vocabulary=self.vocabulary,
            stopwords=self.stopwords,
            slang_share=self.slang_share,
        )


@dataclass(frozen=True)
class Lexicon:
    content: list[str]
    stopwords: list[str]
    slang: dict[str, str]           # slang key -> formal word
    slang_of: dict[str, list[str]]  # formal word -> its slang keys


def _words(rng: random.Random, count: int, taken: set[str], syllables: tuple[int, int]) -> list[str]:
    out = []
    while len(out) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(*syllables)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def make_lexicon(rng: random.Random, shape: Shape) -> Lexicon:
    taken: set[str] = set()
    stopwords = _words(rng, shape.stopwords, taken, (1, 2))
    content = _words(rng, shape.vocabulary, taken, (2, 4))
    formal = rng.sample(content, round(len(content) * shape.slang_share))
    slang_keys = _words(rng, len(formal), taken, (1, 3))
    slang = dict(zip(slang_keys, formal))
    slang_of: dict[str, list[str]] = {}
    for key, word in slang.items():
        slang_of.setdefault(word, []).append(key)
    return Lexicon(content, stopwords, slang, slang_of)


def _model_answer(rng: random.Random, lexicon: Lexicon, topic: list[str], words: int) -> list[str]:
    tokens = []
    while len(tokens) < words:
        if rng.random() < 0.25:
            tokens.append(rng.choice(lexicon.stopwords))
        else:
            tokens.append(rng.choice(topic))
    return tokens


def _answer(rng: random.Random, lexicon: Lexicon, model: list[str], skill: float, words: int) -> list[str]:
    """Runs copied from the model answer, mixed with slang, stopwords and noise."""
    tokens: list[str] = []
    while len(tokens) < words:
        roll = rng.random()
        if roll < 0.3 + 0.5 * skill:
            start = rng.randrange(len(model))
            for word in model[start:start + rng.randint(2, 8)]:
                keys = lexicon.slang_of.get(word)
                tokens.append(rng.choice(keys) if keys and rng.random() < 0.3 else word)
        elif roll < 0.9:
            tokens.extend(rng.choice(lexicon.content) for _ in range(rng.randint(1, 4)))
        else:
            tokens.extend(rng.choice(lexicon.stopwords) for _ in range(rng.randint(1, 2)))
    return tokens[:words]


def surface(rng: random.Random, tokens: list[str]) -> str:
    """Render tokens as text with random capitals, punctuation and spacing."""
    parts = []
    for tok in tokens:
        roll = rng.random()
        if roll < 0.1:
            tok = tok.capitalize()
        elif roll < 0.13:
            tok = tok.upper()
        roll = rng.random()
        if roll < 0.08:
            tok += rng.choice(_PUNCTUATION)
        elif roll < 0.1:
            left, right = rng.choice(_BRACKETS)
            tok = left + tok + right
        parts.append(tok)
        roll = rng.random()
        parts.append("  " if roll < 0.02 else "\n" if roll < 0.03 else " ")
    return "".join(parts[:-1])


def write_corpus(directory: Path, shape: Shape, seed: int) -> dict[str, float]:
    """Write the five input files and return the corpus's measured shape."""
    rng = random.Random(seed)
    lexicon = make_lexicon(rng, shape)
    directory.mkdir(parents=True, exist_ok=True)
    question_ids = [f"q{i + 1}" for i in range(shape.questions)]
    student_ids = [f"s{i + 1:05d}" for i in range(shape.students)]

    models = {}
    weights = {}
    for qid in question_ids:
        topic = rng.sample(lexicon.content, max(20, shape.model_words // 2))
        models[qid] = _model_answer(rng, lexicon, topic, shape.model_words)
        weights[qid] = rng.choice((10, 15, 20, 25, 30))

    answers = []
    grades = []
    for sid in student_ids:
        skill = rng.random()
        for qid in question_ids:
            tokens = _answer(rng, lexicon, models[qid], skill, shape.answer_words)
            answers.append((sid, qid, surface(rng, tokens)))
            mark = min(1.0, max(0.0, skill + rng.gauss(0.0, 0.15)))
            grades.append((sid, qid, f"{weights[qid] * mark:.1f}"))

    _write_csv(directory / "answers.csv", ["student_id", "question_id", "answer_text"], answers)
    _write_csv(
        directory / "model.csv",
        ["question_id", "model_answer", "weight"],
        [(qid, surface(rng, models[qid]), str(weights[qid])) for qid in question_ids],
    )
    _write_csv(directory / "grades.csv", ["student_id", "question_id", "score"], grades)
    _write_csv(directory / "normalization.csv", ["slang", "formal"], sorted(lexicon.slang.items()))
    (directory / "stopwords.txt").write_text(
        "# generated stopwords\n" + "\n".join(lexicon.stopwords) + "\n", encoding="utf-8"
    )
    return {
        "answer_rows": len(answers),
        "answers_bytes": (directory / "answers.csv").stat().st_size,
        "corpus_bytes": sum(p.stat().st_size for p in directory.iterdir()),
        "mean_answer_tokens": sum(len(text.split()) for _, _, text in answers) / len(answers),
    }


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
