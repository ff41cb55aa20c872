"""Run one ``essayscore`` CLI command with every layer's public functions timed.

Usage::

    python3 bench/trace_child.py COUNTERS_JSON CLI_ARG...

The program's own files are not touched. Each traced function is replaced
by a wrapper, and the wrapper is bound under every name that refers to the
original in any loaded ``essayscore`` module, including names imported with
``from .x import y`` and values of module-level dicts such as
``SIMILARITY_METRICS``. ``cli.main`` is the root span.

Spans are folded as they close, not stored: each name gets a call count and
a self time (its duration minus the time of the spans it encloses). A few
counters of work done are taken from the arguments and results; the time
spent taking them is charged to no span. On exit the child writes one JSON
object to COUNTERS_JSON and exits with the CLI's status.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

from essayscore import cli, evaluation, ingest, ngrams, preprocess, scoring, similarity, vsm

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.documents: set[str] = set()
        # one accumulator of enclosed span time per open span, plus the root
        self._enclosed = [0.0]

    def span(self, name, fn, count=None):
        self_s, calls, enclosed = self.self_s, self.calls, self._enclosed

        def wrapper(*args, **kwargs):
            enclosed.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self_s[name] += took - enclosed.pop()
                calls[name] += 1
                enclosed[-1] += took
            if count is not None:
                begin = perf_counter()
                count(args, result)
                enclosed[-1] += perf_counter() - begin
            return result

        return wrapper

    # work counters, one per traced function that has one
    def _clean_text(self, args, result):
        self.counts["chars"] += len(args[0])

    def _pipeline(self, args, result):
        self.documents.add(args[0])

    def _grams(self, args, result):
        self.counts["grams"] += len(result)

    def _vocabulary(self, args, result):
        self.counts["vocab_terms"] += len(result.idf)

    def _transform(self, args, result):
        self.counts["nonzero_weights"] += len(result)

    def _similarity(self, args, result):
        if not args[0] or not args[1]:
            self.counts["empty_vectors"] += 1

    def targets(self):
        """(module, attribute, span name, counter) for every traced function."""
        return [
            (ingest, "load_answers", "ingest.load_answers", None),
            (ingest, "load_model", "ingest.load_model", None),
            (ingest, "load_grades", "ingest.load_grades", None),
            (ingest, "load_lexicons", "ingest.load_lexicons", None),
            (preprocess, "clean_text", "preprocess.clean_text", self._clean_text),
            (preprocess, "case_fold", "preprocess.case_fold", None),
            (preprocess, "tokenize", "preprocess.tokenize", None),
            (preprocess, "normalize_tokens", "preprocess.normalize_tokens", None),
            (preprocess, "remove_stopwords", "preprocess.remove_stopwords", None),
            (preprocess, "preprocess_pipeline", "preprocess.preprocess_pipeline", self._pipeline),
            (ngrams, "extract_ngrams", "ngrams.extract_ngrams", self._grams),
            (vsm, "fit_vocabulary", "vsm.fit_vocabulary", self._vocabulary),
            (vsm, "transform", "vsm.transform", self._transform),
            (similarity, "cosine_similarity", "similarity.cosine", self._similarity),
            (similarity, "jaccard_similarity", "similarity.jaccard", self._similarity),
            (scoring, "score_corpus", "scoring.score_corpus", None),
            (scoring, "aggregate_totals", "scoring.aggregate_totals", None),
            (evaluation, "build_report", "evaluation.build_report", None),
            (evaluation, "f_survival", "evaluation.f_survival", None),
        ]

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "essayscore"]
        for module, attribute, name, count in self.targets():
            original = getattr(module, attribute)
            wrapped = self.span(name, original, count)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapped)
                    elif isinstance(value, dict) and key != "__builtins__":
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped

    def report(self, main_s: float, status: int) -> dict:
        return {
            "status": status,
            "main_s": main_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": {**self.counts, "documents": len(self.documents)},
        }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    root = tracer.span("cli", cli.main)
    status = 1
    start = perf_counter()
    try:
        status = root(cli_args)
    finally:
        main_s = perf_counter() - start
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(main_s, status), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
