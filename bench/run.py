"""Layered benchmark of the ``essayscore`` CLI.

Usage::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload generates a deterministic synthetic corpus from ``--seed``
(see ``corpus.py``) and runs one real CLI command on it as a child process,
one command at a time: a closed loop with a single client. Commands repeat
until ``--seconds`` have passed; every figure is the median over the
commands of one run.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``answers_per_s``: answer rows divided by the wall time of one whole CLI
  command, from spawning the child to reaping it.
* ``peak_rss_mb``: the child's peak resident set, from ``os.wait4``, which
  returns the rusage of that one child.
* ``setup_s``: wall time of a child that only starts up (``--help``): the
  interpreter starts, imports ``essayscore.cli`` and builds the parser.
* ``ok_frac``: the share of CLI commands that exited 0 and passed the
  output check. A failed command is neither retried nor skipped. This is
  one minus the failed share, which is 0 on a healthy program and so gives
  no ratio to bound a regression by.

With ``--trace 1`` the run alternates untraced commands with commands run
under ``trace_child.py``, which times every layer's public functions from
outside the program, and reports the per-layer metrics.

Every command's output is checked: once against ``tests/oracle.py`` on a
small corpus made by the same generator and seed, and at full size for
structure (see ``checks.py``). Every full-size output must be byte-identical
to the run's first one, traced or not. Without ``--workload`` every workload
runs in turn and a table of every metric is printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the workload's corpus shape, the command's wall-time quartiles and
the sha256 of each output file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_oracle, check_structure, corpus_facts, load_oracle, sha256_of
from corpus import Shape, write_corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# start-up samples taken before the first command; one more precedes each
SETUP_REPEATS = 5
MIN_COMMANDS = 3
# a run must end within 180 s; stop starting commands well before that
RUN_BUDGET_S = 150.0

# what reading a malformed output file or the oracle can raise
UNREADABLE = (OSError, ValueError, LookupError, ImportError)

# spans every command exercises; each workload adds its own
COMMON_SPANS = {
    "cli",
    "ingest.load_answers",
    "ingest.load_model",
    "ingest.load_lexicons",
    "preprocess.clean_text",
    "preprocess.case_fold",
    "preprocess.tokenize",
    "preprocess.normalize_tokens",
    "preprocess.remove_stopwords",
    "preprocess.preprocess_pipeline",
    "ngrams.extract_ngrams",
    "vsm.fit_vocabulary",
    "vsm.transform",
    "similarity.cosine",
    "scoring.score_corpus",
}
EVALUATION_SPANS = {"ingest.load_grades", "evaluation.build_report", "evaluation.f_survival"}


@dataclass(frozen=True)
class Workload:
    shape: Shape
    small: Shape  # the corpus checked against the oracle
    command: str
    config: tuple[str, int]  # (metric, n); compare sweeps all six
    spans: frozenset[str]

    def cli_args(self, corpus: Path, out: Path) -> list[str]:
        args = [
            self.command,
            "--answers", str(corpus / "answers.csv"),
            "--model", str(corpus / "model.csv"),
            "--stopwords", str(corpus / "stopwords.txt"),
            "--normalization", str(corpus / "normalization.csv"),
            "--out", str(out),
        ]
        if self.command != "score":
            args += ["--grades", str(corpus / "grades.csv")]
        if self.command != "compare":
            args += ["--metric", self.config[0], "--ngram", str(self.config[1])]
        return args


_SHORT = Shape(students=2000, questions=5, answer_words=40, model_words=40)
_GRID = Shape(students=250, questions=5, answer_words=40, model_words=40)
_LONG = Shape(students=100, questions=2, answer_words=1500, model_words=600, vocabulary=8000)

WORKLOADS = {
    # Many short answers per question: preprocessing and the per-answer
    # transform and similarity dominate, while n-grams, fitting and evaluation
    # do little. The only workload that writes one row per answer.
    "score_short": Workload(
        shape=_SHORT,
        small=_SHORT.scaled(students=12, words=1.0),
        command="score",
        config=("cosine", 1),
        spans=frozenset(COMMON_SPANS | {"scoring.aggregate_totals"}),
    ),
    # Six metric/n cells, each of which reloads every file and preprocesses
    # every document twice; also exercises n=2/3, fitting and evaluation.
    "compare_grid": Workload(
        shape=_GRID,
        small=_GRID.scaled(students=8, words=1.0),
        command="compare",
        config=("cosine", 1),
        spans=frozenset(COMMON_SPANS | EVALUATION_SPANS | {"similarity.jaccard"}),
    ),
    # Few long essays with mostly distinct trigrams: vocabulary fitting,
    # transform and n-grams dominate, per-answer overhead does little, and
    # memory peaks.
    "evaluate_long": Workload(
        shape=_LONG,
        small=_LONG.scaled(students=8, words=0.1),
        command="evaluate",
        config=("cosine", 3),
        spans=frozenset(COMMON_SPANS | EVALUATION_SPANS),
    ),
}

END_TO_END_UNITS = {"answers_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "ratio"}

PER_LAYER_UNITS = {
    "ingest.load_s": "s",
    "ingest.loads": "count",
    "preprocess.clean_text.self_s": "s",
    "preprocess.case_fold.self_s": "s",
    "preprocess.tokenize.self_s": "s",
    "preprocess.normalize_tokens.self_s": "s",
    "preprocess.remove_stopwords.self_s": "s",
    "preprocess.preprocess_pipeline.self_s": "s",
    "preprocess.chars_per_s": "1/s",
    "preprocess.reuse_ratio": "ratio",
    "ngrams.extract_ngrams.self_s": "s",
    "ngrams.grams": "count",
    "vsm.fit_vocabulary.self_s": "s",
    "vsm.fit_vocabulary.calls": "count",
    "vsm.vocab_terms": "count",
    "vsm.transform.self_s": "s",
    "vsm.transform.calls": "count",
    "vsm.nonzero_weights": "count",
    "similarity.cosine.self_s": "s",
    "similarity.jaccard.self_s": "s",
    "similarity.calls": "count",
    "similarity.empty_frac": "ratio",
    "scoring.score_corpus.self_s": "s",
    "scoring.aggregate_totals.self_s": "s",
    "evaluation.build_report.self_s": "s",
    "evaluation.f_survival.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    status: int
    wall_s: float
    peak_rss_mb: float


class Launcher:
    """The small process that starts every measured child (see launcher.py).

    Start it before the benchmark's own memory grows.
    """

    def __init__(self) -> None:
        # commands load cached bytecode, as an installed program does; the
        # first one to import a module writes its cache under src/
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPATH"] = str(SRC)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def spawn(self, argv: list[str], stdout: Path, stderr: Path, timeout: float) -> Outcome:
        """Run ``python3 ARGV...`` to completion."""
        request = {"argv": [sys.executable, *argv], "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the launcher exited with status {self.proc.wait()}")
        return Outcome(**json.loads(reply))

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """One workload's run: its scratch files, its commands and their tally."""

    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float, launcher: Launcher) -> None:
        self.workload = workload
        self.spawn = launcher.spawn
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.corpus = work / "corpus"
        self.shape = write_corpus(self.corpus, workload.shape, seed)
        self.small = work / "small"
        write_corpus(self.small, workload.small, seed)
        self.facts = corpus_facts(self.corpus)
        self.reference: dict[str, str] | None = None

    def _tally(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def _timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def startup(self) -> float:
        """Wall time of a CLI child that only starts up and prints its usage."""
        got = self.spawn(["-m", "essayscore.cli", "--help"], self.work / "help.out",
                    self.work / "help.err", self._timeout())
        self._tally("setup", [] if got.status == 0 else [f"exit {got.status}: {self._stderr('help.err')}"])
        return got.wall_s

    def check_small(self) -> None:
        out = self.work / "small_out"
        got = self.spawn(["-m", "essayscore.cli", *self.workload.cli_args(self.small, out)],
                    self.work / "small.out", self.work / "small.err", self._timeout())
        if got.status != 0:
            problems = [f"exit {got.status}: {self._stderr('small.err')}"]
        else:
            try:
                problems = check_oracle(load_oracle(ROOT), self.workload.command,
                                        self.workload.config, self.small, out)
            except UNREADABLE as exc:
                problems = [f"unreadable output or oracle: {exc!r}"]
        self._tally("oracle", problems)

    def command(self, traced: bool) -> tuple[Outcome, dict | None]:
        """One full-size command, checked; the trace counters when traced."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        counters = self.work / "trace.json"
        counters.unlink(missing_ok=True)
        cli = self.workload.cli_args(self.corpus, out)
        argv = [str(BENCH / "trace_child.py"), str(counters), *cli] if traced else ["-m", "essayscore.cli", *cli]
        got = self.spawn(argv, self.work / "cmd.out", self.work / "cmd.err", self._timeout())
        label = "traced" if traced else "command"
        if got.status != 0:
            self._tally(label, [f"exit {got.status}: {self._stderr('cmd.err')}"])
            return got, None
        try:
            problems = check_structure(self.workload.command, self.facts, out, self.work / "cmd.out")
            hashes = sha256_of(out)
            trace = json.loads(counters.read_text(encoding="utf-8")) if traced else None
        except UNREADABLE as exc:
            self._tally(label, [f"unreadable output: {exc!r}"])
            return got, None
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            problems.append("output differs from the run's first output")
        if trace is not None:
            silent = sorted(s for s in self.workload.spans if not trace["calls"].get(s))
            if silent:
                problems.append(f"spans recorded no calls: {silent}")
        self._tally(label, problems)
        return got, trace

    def _stderr(self, name: str) -> str:
        lines = (self.work / name).read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced command."""
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]

    def own(name: str) -> float:
        return self_s.get(name, 0.0)

    similarity_calls = calls.get("similarity.cosine", 0) + calls.get("similarity.jaccard", 0)
    clean_s = own("preprocess.clean_text")
    metrics = {
        "ingest.load_s": sum(own(f"ingest.load_{k}") for k in ("answers", "model", "grades", "lexicons")),
        "ingest.loads": calls.get("ingest.load_answers", 0),
        "preprocess.chars_per_s": counts.get("chars", 0) / clean_s if clean_s else 0.0,
        "preprocess.reuse_ratio": counts["documents"] / max(1, calls.get("preprocess.preprocess_pipeline", 0)),
        "ngrams.grams": counts.get("grams", 0),
        "vsm.fit_vocabulary.calls": calls.get("vsm.fit_vocabulary", 0),
        "vsm.vocab_terms": counts.get("vocab_terms", 0),
        "vsm.transform.calls": calls.get("vsm.transform", 0),
        "vsm.nonzero_weights": counts.get("nonzero_weights", 0),
        "similarity.calls": similarity_calls,
        "similarity.empty_frac": counts.get("empty_vectors", 0) / max(1, similarity_calls),
        "trace.unattributed_frac": (wall_s - trace["main_s"]) / wall_s,
    }
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_s"):
            metrics[name] = own(name[: -len(".self_s")])
    return metrics


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path, launcher: Launcher
) -> tuple[dict, dict]:
    started = time.monotonic()
    run = Run(workload, seed, work, started + RUN_BUDGET_S, launcher)
    run.check_small()

    # start-up samples are spread over the run, so that one burst of
    # machine noise cannot move them all
    startups = [] if trace else [run.startup() for _ in range(SETUP_REPEATS)]
    untraced: list[Outcome] = []
    traced: list[tuple[Outcome, dict]] = []
    stop = time.monotonic() + seconds
    while True:
        if not trace:
            startups.append(run.startup())
        got, _ = run.command(traced=False)
        untraced.append(got)
        if trace:
            got, counters = run.command(traced=True)
            if counters is not None:
                traced.append((got, counters))
        now = time.monotonic()
        if now >= run.deadline or (now >= stop and len(untraced) >= MIN_COMMANDS):
            break

    ok = [o for o in untraced if o.status == 0]
    walls = [o.wall_s for o in ok] or [o.wall_s for o in untraced]
    if trace:
        values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        if traced:
            per_command = [layer_metrics(c, o.wall_s) for o, c in traced]
            values.update({name: statistics.median(m[name] for m in per_command) for name in per_command[0]})
            traced_wall = statistics.median(o.wall_s for o, _ in traced)
            values["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1.0
        units = PER_LAYER_UNITS
    else:
        values = {
            "answers_per_s": statistics.median(run.shape["answer_rows"] / w for w in walls),
            "peak_rss_mb": statistics.median(o.peak_rss_mb for o in (ok or untraced)),
            "setup_s": statistics.median(startups),
            "ok_frac": 1.0 - run.failed / run.attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "seed": seed,
        "trace": int(trace),
        "corpus": run.shape,
        "commands": len(untraced) + len(traced),
        "wall_s_quartiles": _quartiles(walls),
        "elapsed_s": time.monotonic() - started,
        "outputs_sha256": run.reference,
        "problems": run.problems[:20],
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "essayscore" / "cli.py").is_file():
        print(f"error: no essayscore sources under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    results = {}
    try:
        with Launcher() as launcher:
            for name in names:
                result, details = measure(
                    WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work / name, launcher
                )
                results[name] = result
                print(json.dumps({"workload": name, **details}), flush=True)
                for problem in details["problems"]:
                    print(f"{name}: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it

    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
