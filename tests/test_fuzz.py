"""CLI fuzzing: a mutated input file ends with exit 0 or 2, never a traceback.

Hypothesis takes the JSON documents of an algebra with Gaussian structure
constants, a table family, a presentation and a relation family, and mutates
them: it drops a key or an array element, puts a value of another JSON type
in place of one, or alters a number or a literal (a scalar, or relation text,
where an edit aimed at a digit makes an exponent grow).  Every subcommand
that reads such a file must then either succeed or exit 2 with exactly one
``error:`` line.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from algdeform import cli

REPO = Path(__file__).resolve().parent.parent
# the generators of the gaussian_m2 golden case, which generate it
GENERATORS = (
    "10/281-32/281*i,-128/281-40/281*i,80/281-256/281*i,20/281-64/281*i;"
    "-48/281-296/281*i,-60/281+192/281*i,178/281-120/281*i,-96/281-30/281*i"
)
TABLE_COMMANDS = (
    ["analyze"],
    ["identity-span", "--m", "1"],
    ["scan", "--count", "2"],
    ["obstruct", "--trials", "1", "--generators", GENERATORS],
    ["obstruct", "--trials", "1"],
)
# --max-degree 8 ends a mutated build that never stabilises within a second
PRESENTATION_COMMANDS = (
    ["build", "--max-degree", "8", "--out", "{out}"],
    ["obstruct", "--trials", "1", "--max-degree", "8"],
)
# source name -> (document, the commands run on it)
SOURCES = {
    name: (json.loads(path.read_text()), commands)
    for name, path, commands in (
        ("gaussian_m2", REPO / "tests" / "data" / "gaussian_m2.json", TABLE_COMMANDS),
        ("dual_number_family", REPO / "demos" / "data" / "dual_number_family.json",
         TABLE_COMMANDS),
        ("contraction_dim12", REPO / "demos" / "data" / "contraction_dim12.json",
         PRESENTATION_COMMANDS),
        ("split_relation_family", REPO / "demos" / "data" / "split_relation_family.json",
         (["scan", "--count", "2"],)),
    )
}

OTHER_VALUES = st.sampled_from(
    [None, True, False, 0, 1, -1, 2, 3, 10 ** 6, -(10 ** 6), 1.5, "", "x", "0", "1",
     "1/0", "i", "-", "1e3", [], [[]], ["1"], {}, {"dim": 2}]
).map(lambda value: json.loads(json.dumps(value)))  # a fresh copy: later mutations edit it
LITERAL_EDITS = st.sampled_from(
    ["0", "1", "9", "-", "/", "*", "i", "+", " ", "/0", "e", "^", "00000000"]
)


def _paths(node, prefix=()):
    """Every path to a value inside ``node`` (dict keys and list indices)."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutate(draw, box):
    """Mutate the document ``box[0]`` in place at one drawn path, which may
    be the document itself."""
    paths = list(_paths(box))
    path = draw(st.sampled_from(paths))
    parent = box
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    kind = draw(st.sampled_from(("drop", "retype", "alter")))
    if kind == "drop" and parent is not box:
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(OTHER_VALUES)
    elif isinstance(value, bool) or not isinstance(value, (int, str)):
        parent[key] = draw(OTHER_VALUES)
    elif isinstance(value, int):
        parent[key] = value + draw(st.sampled_from((-3, -2, -1, 1, 2, 3, 10 ** 6)))
    else:  # replace, insert or delete one character of a literal
        at = draw(st.integers(0, len(value)))
        digits = [k + 1 for k, ch in enumerate(value) if ch.isdigit()]
        if digits and draw(st.booleans()):  # just after a digit: numbers grow
            at = draw(st.sampled_from(digits))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        piece = draw(LITERAL_EDITS)
        if edit == "insert":
            value = value[:at] + piece + value[at:]
        elif edit == "replace":
            value = value[:at] + piece + value[at + 1:]
        else:
            value = value[:at] + value[at + 1:]
        parent[key] = value


@st.composite
def mutated_runs(draw):
    """A mutated source document and one of the commands run on that source."""
    doc, commands = SOURCES[draw(st.sampled_from(sorted(SOURCES)))]
    box = [json.loads(json.dumps(doc))]  # a fresh copy
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, box)
    return box[0], draw(st.sampled_from(commands))


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=600, deadline=None)
@given(mutated_runs())
def test_mutated_input_exits_0_or_2_with_at_most_one_error_line(work_dir, run):
    doc, command = run
    input_path = work_dir / "input.json"
    input_path.write_text(json.dumps(doc))
    args = [a.format(out=work_dir / "out.json") for a in command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command[0], "--input", str(input_path), *args])
    lines = err.getvalue().splitlines()
    assert code in (0, 2), lines
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert not any(line.startswith("error:") for line in lines), lines
