"""The research result on ``data/``, pinned by name, so a change to it fails here."""

import csv

from conftest import cli_args
from essayscore.cli import main


def test_unigrams_score_best_and_jaccard_beats_cosine_on_data(data_dir, tmp_path):
    """Overall RMSE of ``compare`` on ``data/``: n = 1 is lowest for both metrics,
    and Jaccard is below cosine at every n (18.69 < 35.70, 33.74 < 47.98 and
    46.35 < 52.88).

    The paper's unigram finding is reproduced. Its "cosine beats Jaccard"
    finding is not: under per-question idf, the model terms that few
    students use get the largest weights, and cosine's error is mostly
    bias. ROADMAP item 10 holds the evidence.
    """
    assert main(["compare", *cli_args(data_dir, tmp_path, grades=True)]) == 0
    with open(tmp_path / "compare.csv", newline="", encoding="utf-8") as fh:
        overall = {
            (row["metric"], int(row["ngram"])): float(row["rmse"])
            for row in csv.DictReader(fh)
            if row["question_id"] == "overall"
        }
    for metric in ("cosine", "jaccard"):
        assert overall[(metric, 1)] < min(overall[(metric, 2)], overall[(metric, 3)])
    for n in (1, 2, 3):
        assert overall[("jaccard", n)] < overall[("cosine", n)]
