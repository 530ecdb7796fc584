"""Per-job correctness gate: run one CLI job in-process and judge its output.

A job fails on a non-zero exit code, an exception, stdout that is not
exactly one JSON document, or a document whose fields disagree with the
job's expected answers.
"""

from __future__ import annotations

import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter


class Outcome:
    __slots__ = ("seconds", "problem", "document")

    def __init__(self, seconds, problem=None, document=None):
        self.seconds = seconds
        self.problem = problem
        self.document = document


def run_job(cli, job) -> Outcome:
    """Time ``cli.main(argv)`` from call to return, then check what it printed.

    ``main`` is looked up on each call, so a traced ``cli.main`` is the one run.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(job.argv + ["--format", "json"])
    except (Exception, SystemExit) as exc:  # a crashing job is a failed job
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return Outcome(
            perf_counter() - start,
            f"raised {type(exc).__name__}: {exc} ({where.filename}:{where.lineno})",
        )
    seconds = perf_counter() - start
    if code != 0:
        return Outcome(seconds, f"exit code {code}: {err.getvalue().strip()[:300]}")
    text = out.getvalue().strip()
    try:
        document, end = json.JSONDecoder().raw_decode(text)
    except ValueError as exc:
        return Outcome(seconds, f"stdout is not JSON: {exc}")
    if end != len(text):
        return Outcome(seconds, "stdout holds more than one JSON document")
    if not isinstance(document, dict):
        return Outcome(seconds, "stdout JSON is not an object")
    try:
        problems = job.check(document)
    except (KeyError, TypeError, AttributeError) as exc:
        problems = [f"unexpected document shape: {type(exc).__name__}: {exc}"]
    if problems:
        return Outcome(seconds, "; ".join(problems[:3]), document)
    return Outcome(seconds, None, document)
