"""Byte-for-byte CLI output on the demo inputs and a Gaussian-coordinate algebra.

Each case's stdout, in text and in JSON, must equal its file under
``tests/golden/``.  The demo-input files were recorded before the
structure-table multiply was rewritten, and the Gaussian-coordinate cases
before the scalars moved from pairs of Fractions to int triples, so they pin
the output of the code each change replaced.  A change that means to alter
the output rewrites them with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from algdeform import cli

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "demos" / "data"
# M2 on a basis with Gaussian coordinates, so that non-real scalars are printed
GAUSSIAN = Path(__file__).resolve().parent / "data" / "gaussian_m2.json"
GAUSSIAN_GENERATORS = (
    "10/281-32/281*i,-128/281-40/281*i,80/281-256/281*i,20/281-64/281*i;"
    "-48/281-296/281*i,-60/281+192/281*i,178/281-120/281*i,-96/281-30/281*i"
)
GOLDEN = Path(__file__).resolve().parent / "golden"

# Run in order in one working directory: "build" writes acon.json there for
# the cases after it.
CASES = {
    "build": ["build", "--input", str(DATA / "contraction_dim12.json"), "--out", "acon.json"],
    "analyze": ["analyze", "--input", "acon.json"],
    "identity-span": ["identity-span", "--input", "acon.json", "--m", "1"],
    "scan-dual": ["scan", "--input", str(DATA / "dual_number_family.json")],
    "scan-split": ["scan", "--input", str(DATA / "split_relation_family.json")],
    "enumerate": ["enumerate", "6"],
    "obstruct": ["obstruct", "--input", str(DATA / "contraction_dim12.json"), "--trials", "5"],
    "analyze-gaussian": ["analyze", "--input", str(GAUSSIAN)],
    "identity-span-gaussian": ["identity-span", "--input", str(GAUSSIAN), "--m", "1"],
    "obstruct-gaussian": [
        "obstruct", "--input", str(GAUSSIAN), "--trials", "5", "--generators", GAUSSIAN_GENERATORS,
    ],
}
FORMATS = ("text", "json")


def golden_path(name, fmt):
    return GOLDEN / f"{name}.{'json' if fmt == 'json' else 'txt'}"


def run_case(name, fmt):
    out = StringIO()
    with redirect_stdout(out):
        code = cli.main(CASES[name] + ["--format", fmt])
    assert code == 0, f"{name} --format {fmt} exited {code}"
    return out.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(path)
    try:
        run_case("build", "text")
        yield path
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_stdout_matches_the_recorded_bytes(workdir, name, fmt):
    assert run_case(name, fmt) == golden_path(name, fmt).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in CASES:
            for fmt in FORMATS:
                golden_path(name, fmt).write_text(run_case(name, fmt), encoding="utf-8")
    sys.stdout.write(f"wrote {len(CASES) * len(FORMATS)} files to {GOLDEN}\n")
