"""Golden outputs: what a fixed list of CLI runs writes, pinned by sha256.

Usage::

    python tests/golden.py [--seed 0|1] [--write]

Each run calls the ``essayscore`` CLI in this process on a corpus written
to a temporary directory: ``data/``; a copy of it with a slang key that no
token can equal and a grade row for an unanswered pair, so that both
warnings show; and the benchmark corpora, made by ``bench/``'s
``write_corpus`` at seed 0 or 1, each with the four ``BENCH_COMMANDS``.
A run's outcome is its exit status and the sha256 of its stdout, its
stderr (with the corpus directory written ``<corpus>``) and each file it
writes. The runs on ``data/`` are also made through the shipped entry
point, ``python -m essayscore.cli``, in a child process, and compared with
the same entries. Outputs do not depend on the CPU count, so the same
outcomes hold on one CPU (``taskset -c 0 python tests/golden.py``) and on
every CPU.

``--seed`` picks the runs on that seed's benchmark corpora; the runs on
``data/`` go with seed 0. Without ``--seed`` every run is made. The
outcomes are compared with ``tests/golden.json``, naming each differing
run and file, and the exit status is 1 if any differs. ``--write`` stores
the outcomes in that file instead, keeping the other seed's entries.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# this checkout's package, run from the checkout or with another copy installed
sys.path.insert(0, str(ROOT / "src"))

import essayscore
from essayscore.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden.json")

DATA_COMMANDS = [
    "score --metric cosine --ngram 1",
    "score --metric jaccard --ngram 2",
    "evaluate --metric cosine --ngram 3",
    "compare",
]
BENCH_COMMANDS = [
    ("score_short", "score --metric jaccard --ngram 2"),
    ("score_short", "score --metric cosine --ngram 1"),
    ("compare_grid", "compare"),
    ("evaluate_long", "evaluate --metric cosine --ngram 3"),
]


def runs(seed: int) -> list[tuple[str, str]]:
    """(corpus, command) of each run of ``seed``."""
    bench = [(f"{workload}-{seed}", command) for workload, command in BENCH_COMMANDS]
    if seed:
        return bench
    data = [("data", command) for command in DATA_COMMANDS]
    return [*data, ("data-warned", "evaluate --metric cosine --ngram 3"), *bench]


def write_corpus(name: str, directory: Path) -> None:
    """Write the five input files of the corpus ``name`` into ``directory``."""
    if name.startswith("data"):
        shutil.copytree(ROOT / "data", directory)
        if name == "data-warned":
            with open(directory / "normalization.csv", "a", encoding="utf-8") as fh:
                fh.write("x1,y\n")
            with open(directory / "grades.csv", "a", encoding="utf-8") as fh:
                fh.write("s9,q1,5\n")
        return
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from corpus import write_corpus as write_bench_corpus
        from run import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    workload, seed = name.rsplit("-", 1)
    write_bench_corpus(directory, WORKLOADS[workload].shape, int(seed))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(corpus: Path, command: str, out: Path, child: bool = False) -> dict:
    """Exit status and sha256 of stdout, stderr and each file of one CLI run.

    With ``child``, the run is ``python -m essayscore.cli`` in a child
    process that imports this process's ``essayscore``.
    """
    argv = [
        *command.split(),
        "--answers", str(corpus / "answers.csv"),
        "--model", str(corpus / "model.csv"),
        "--stopwords", str(corpus / "stopwords.txt"),
        "--normalization", str(corpus / "normalization.csv"),
        "--out", str(out),
    ]
    if not command.startswith("score"):
        argv += ["--grades", str(corpus / "grades.csv")]
    if child:
        src = str(Path(essayscore.__file__).parent.parent)
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "essayscore.cli", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
            timeout=120,
        )
        status, stdout, stderr = result.returncode, result.stdout.decode(), result.stderr.decode()
    else:
        out_text, err_text = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err_text):
            status = cli_main(argv)
        stdout, stderr = out_text.getvalue(), err_text.getvalue()
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {
        "exit": status,
        "stdout": _sha256(stdout.replace(str(corpus), "<corpus>").encode()),
        "stderr": _sha256(stderr.replace(str(corpus), "<corpus>").encode()),
        "files": {path.name: _sha256(path.read_bytes()) for path in files},
    }


def outcomes(seed: int, child: bool = False) -> dict[str, dict]:
    """The outcome of each run of ``seed``, keyed ``corpus: command``.

    With ``child``, only the runs on ``data/``, each in a child process.
    """
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, command) in enumerate(runs(seed)):
            if child and not name.startswith("data"):
                continue
            corpus = Path(tmp, name)
            if not corpus.exists():
                write_corpus(name, corpus)
            got[f"{name}: {command}"] = outcome(corpus, command, Path(tmp, f"out{k}"), child)
    return got


def load() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def differences(got: dict[str, dict], want: dict[str, dict]) -> list[str]:
    """One line for each run or file of ``got`` whose outcome is not ``want``'s."""
    problems = []
    for run, outcome in got.items():
        if run not in want:
            problems.append(f"{run}: no entry in {GOLDEN.name}")
            continue
        expected = want[run]
        for part in ("exit", "stdout", "stderr"):
            if outcome[part] != expected[part]:
                problems.append(f"{run}: {part} differs")
        for name in sorted(outcome["files"].keys() | expected["files"].keys()):
            if outcome["files"].get(name) != expected["files"].get(name):
                problems.append(f"{run}: {name} differs")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check or write the CLI's golden outputs.")
    parser.add_argument("--seed", type=int, choices=(0, 1), help="default: both seeds")
    parser.add_argument("--write", action="store_true", help="store the outcomes instead")
    args = parser.parse_args(argv)
    got = {}
    for seed in (0, 1) if args.seed is None else (args.seed,):
        got.update(outcomes(seed))
    if args.write:
        stored = load() if GOLDEN.exists() else {}
        GOLDEN.write_text(json.dumps({**stored, **got}, indent=1) + "\n", encoding="utf-8")
        return 0
    want = load()
    problems = differences(got, want)
    if args.seed in (None, 0):
        problems += [
            f"python -m essayscore.cli: {problem}"
            for problem in differences(outcomes(0, child=True), want)
        ]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
