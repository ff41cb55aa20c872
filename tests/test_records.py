"""Every record is an immutable named tuple, and the CLI imports no record machinery."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from essayscore import (
    AnovaResult,
    DescriptiveStats,
    EvaluationReport,
    HumanGrade,
    Lexicons,
    QuestionSpec,
    RawEssay,
    ScoreRecord,
    StudentScore,
    Vocabulary,
)

ROOT = Path(__file__).resolve().parent.parent
STATS = DescriptiveStats(1.0, 0.5, 50.0)
RECORDS = [
    RawEssay("s1", "q1", "text"),
    QuestionSpec("q1", "model answer", 2.0),
    HumanGrade("s1", "q1", 1.5),
    Lexicons(),
    ScoreRecord("s1", "q1", 0.5, 1.0),
    StudentScore("s1", 1.0),
    Vocabulary({"term": 0.7}),
    STATS,
    AnovaResult(4.0, 0.1, 0.5, 0.5, 4),
    EvaluationReport({"q1": 0.1}, 0.1, [("s1", 1.0, 1.1)], STATS, STATS, None),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestRecord:
    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)

    def test_no_new_attribute(self, record):
        with pytest.raises(AttributeError):
            record.extra = None

    def test_repr_names_every_field(self, record):
        fields = ", ".join(f"{name}={value!r}" for name, value in record._asdict().items())
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_has_a_docstring(self, record):
        assert type(record).__doc__ and not type(record).__doc__.startswith(type(record).__name__)


def test_default_lexicons_share_nothing_mutable():
    lexicons = Lexicons()
    assert lexicons.stopwords == frozenset() and lexicons.normalization == {}
    with pytest.raises(TypeError):
        lexicons.normalization["gak"] = "tidak"


def test_cli_import_loads_no_record_machinery():
    # -S leaves out site, whose imports would hide what the package itself loads
    code = (
        "import sys, essayscore.cli; essayscore.cli._build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))"
    )
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
