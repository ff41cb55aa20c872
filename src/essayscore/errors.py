"""The package's one exception type.

Every data or usage problem the package detects - a missing or malformed
input file, a bad key, an out-of-range parameter, too little data for a
statistic - raises :class:`EssayScoreError`. Its message names the fault
and, for input files, the file and line, so callers (notably the CLI)
catch this one class and print the message, while real bugs propagate.
"""


class EssayScoreError(Exception):
    """A data or usage problem; the message names the fault and any file and line."""
