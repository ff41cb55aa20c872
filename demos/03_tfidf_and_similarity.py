"""TF-IDF vectors and the two similarity metrics on a three-document corpus.

The corpus is one model answer plus two student answers to the same
question; that is exactly how the scorer builds its per-question idf.

Run from the repository root:  python demos/03_tfidf_and_similarity.py
"""

from essayscore import (
    cosine_similarity,
    fit_vocabulary,
    jaccard_similarity,
    term_frequency,
    transform,
)

model = ["ibu", "kota", "indonesia", "jakarta"]
student_a = ["jakarta", "ibu", "kota"]
student_b = ["indonesia", "jakarta"]
docs = [model, student_a, student_b]

print("corpus (model answer first):")
for name, doc in zip(("model", "student_a", "student_b"), docs):
    print(f"  {name:<10} {doc}")

vocab = fit_vocabulary(docs)
print(f"\nvocabulary over {len(docs)} documents (df and idf per term):")
for term in sorted(vocab.idf):
    df = sum(term in doc for doc in docs)
    print(f"  {term:<10} df={df}  idf={vocab.idf[term]:.4f}")
print("  note: 'jakarta' appears in every document, so its idf is 0 and it")
print("  carries no weight anywhere.")

print("\nterm frequencies of student_a:", {
    t: round(v, 4) for t, v in term_frequency(student_a).items()
})

vectors = {name: transform(doc, vocab) for name, doc in
           zip(("model", "student_a", "student_b"), docs)}
print("\nsparse tf-idf vectors (zero-weight terms absent):")
for name, vec in vectors.items():
    print(f"  {name:<10} {{{', '.join(f'{t}: {w:.4f}' for t, w in sorted(vec.items()))}}}")

print("\nsimilarity of each student to the model answer:")
for name in ("student_a", "student_b"):
    cos = cosine_similarity(vectors[name], vectors["model"])
    jac = jaccard_similarity(vectors[name], vectors["model"])
    print(f"  {name:<10} cosine={cos:.4f}  jaccard={jac:.4f}")

print("\ncosine weighs how much shared terms matter; jaccard only counts")
print("which terms overlap, ignoring their weights entirely.")
