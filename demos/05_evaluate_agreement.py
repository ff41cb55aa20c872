"""Compare system scores against teacher grades on the bundled corpus.

Reports RMSE per question and overall, descriptive statistics for both
graders, a two-condition repeated-measures ANOVA, and the full
metric x n-gram RMSE grid.

Run from the repository root:  python demos/05_evaluate_agreement.py
"""

from pathlib import Path

from essayscore import (
    build_report,
    load_answers,
    load_grades,
    load_lexicons,
    load_model,
    score_corpus,
)

data = Path(__file__).resolve().parent.parent / "data"
answers = load_answers(data / "answers.csv")
questions = load_model(data / "model.csv")
grades = load_grades(data / "grades.csv")
lexicons = load_lexicons(data / "stopwords.txt", data / "normalization.csv")

records = score_corpus(answers, questions, lexicons, metric="cosine", n=1)
report = build_report(records, grades)

print("=== cosine, unigrams ===\n")
print("rmse per question and over per-student totals:")
for qid, value in report.per_question.items():
    print(f"  {qid:<8} {value:8.4f}")
print(f"  {'overall':<8} {report.overall:8.4f}")

print("\nper-student totals (human vs system):")
for sid, human, system in report.totals:
    print(f"  {sid}: human {human:6.2f}   system {system:6.2f}")

print("\ndescriptive statistics of the totals:")
for name, stats in (("system", report.system_stats), ("human", report.human_stats)):
    print(f"  {name:<7} mean={stats.mean:7.3f}  std={stats.std:7.3f}  cv={stats.cv:7.3f}")

anova = report.anova
print("\ntwo-condition repeated-measures ANOVA (system vs human totals):")
print(f"  F({1}, {anova.df_error}) = {anova.f:.3f}   p = {anova.p:.4f}")
print(f"  partial eta^2 = {anova.eta_sq:.3f}   Wilks's lambda = {anova.wilks_lambda:.3f}")

print("\n=== rmse grid: metric x n-gram, overall row per combination ===\n")
header = f"  {'':<10}" + "".join(f"{'n=' + str(n):>10}" for n in (1, 2, 3))
print(header)
# one pass scores all six cells: each document is preprocessed once, and
# each question fitted once per n-gram size for both metrics
cells = [(metric, n) for metric in ("cosine", "jaccard") for n in (1, 2, 3)]
grid = score_corpus(answers, questions, lexicons, cells=cells)
overall = {cell: build_report(recs, grades).overall for cell, recs in zip(cells, grid)}
for metric in ("cosine", "jaccard"):
    print(f"  {metric:<10}" + "".join(f"{overall[(metric, n)]:>10.4f}" for n in (1, 2, 3)))

print("\non this tiny corpus jaccard with unigrams tracks the teacher best;")
print("which configuration wins is a property of the data, not the code.")
