"""Automated short-essay scoring against teacher model answers.

Student answers and model answers are preprocessed into token sequences,
expanded into n-grams (n = 1, 2, or 3), weighted with TF-IDF over a
per-question corpus, and compared with cosine or Jaccard similarity. A
question's points are similarity times the question's weight; evaluation
against human grades reports RMSE, descriptive statistics, and a
two-condition repeated-measures ANOVA.
"""

from .errors import EssayScoreError
from .evaluation import (
    AnovaResult,
    DescriptiveStats,
    EvaluationReport,
    build_report,
    descriptive_stats,
    f_survival,
    repeated_measures_anova,
    rmse,
)
from .ingest import (
    HumanGrade,
    QuestionSpec,
    RawEssay,
    load_answers,
    load_grades,
    load_lexicons,
    load_model,
)
from .ngrams import extract_ngrams
from .preprocess import (
    Lexicons,
    case_fold,
    clean_text,
    normalize_tokens,
    preprocess_pipeline,
    remove_stopwords,
    tokenize,
)
from .scoring import (
    ScoreRecord,
    StudentScore,
    aggregate_totals,
    score_corpus,
)
from .similarity import cosine_similarity, jaccard_similarity
from .vsm import Vocabulary, fit_vocabulary, term_frequency, transform

__version__ = "0.1.0"

__all__ = [
    "AnovaResult",
    "DescriptiveStats",
    "EssayScoreError",
    "EvaluationReport",
    "HumanGrade",
    "Lexicons",
    "QuestionSpec",
    "RawEssay",
    "ScoreRecord",
    "StudentScore",
    "Vocabulary",
    "aggregate_totals",
    "build_report",
    "case_fold",
    "clean_text",
    "cosine_similarity",
    "descriptive_stats",
    "extract_ngrams",
    "f_survival",
    "fit_vocabulary",
    "jaccard_similarity",
    "load_answers",
    "load_grades",
    "load_lexicons",
    "load_model",
    "normalize_tokens",
    "preprocess_pipeline",
    "remove_stopwords",
    "rmse",
    "repeated_measures_anova",
    "score_corpus",
    "term_frequency",
    "tokenize",
    "transform",
]
