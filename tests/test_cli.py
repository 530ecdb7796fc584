import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "demos" / "data"
TEST_DATA = REPO / "tests" / "data"


def random_table(n, seed, entry=str):
    """A seeded table of small integers; associativity fails almost everywhere."""
    rng = random.Random(seed)
    return [
        [[entry(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)] for _ in range(n)
    ]


def run_cli(*argv, cwd=None, **kwargs):
    """``python -m algdeform *argv`` on this checkout; ``kwargs`` go to
    ``subprocess.run``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "algdeform", *argv],
        capture_output=True,
        env=env,
        cwd=cwd or REPO,
        **kwargs,
    )


@pytest.fixture(scope="module")
def acon_algebra(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "acon.algebra.json"
    proc = run_cli(
        "build", "--input", str(DATA / "contraction_dim12.json"), "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return out


@pytest.fixture(scope="module")
def m2_algebra(tmp_path_factory):
    from algdeform.constructions import matrix_unit_algebra

    out = tmp_path_factory.mktemp("cli") / "m2.json"
    matrix_unit_algebra(2).save(out)
    return out


class TestBuild:
    def test_contraction_algebra(self, acon_algebra):
        data = json.loads(acon_algebra.read_text())
        assert data["dim"] == 12

    def test_summary_fields(self, tmp_path):
        out = tmp_path / "alg.json"
        proc = run_cli(
            "build",
            "--input", str(DATA / "contraction_dim12.json"),
            "--out", str(out),
            "--format", "json",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["dim"] == 12
        assert doc["valid"] is True

    def test_small_presentation(self, tmp_path):
        pres = tmp_path / "dual.json"
        pres.write_text(
            json.dumps({"generators": ["x"], "relations": ["x^2"], "expected_dim": 2})
        )
        proc = run_cli("build", "--input", str(pres), "--format", "json",
                       "--out", str(tmp_path / "dual.algebra.json"))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dim"] == 2

    def test_max_degree_above_the_cap_exits_2(self, tmp_path):
        from algdeform.presentation import MAX_DEGREE

        over = MAX_DEGREE + 1
        pres = json.loads((DATA / "contraction_dim12.json").read_text())
        pres["max_degree"] = over
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(pres))
        for source in (["--input", str(path)],
                       ["--input", str(DATA / "contraction_dim12.json"), "--max-degree", str(over)]):
            proc = run_cli("build", *source, "--out", str(tmp_path / "o.json"))
            assert proc.returncode == 2
            lines = proc.stderr.decode().splitlines()
            assert len(lines) == 1
            assert lines[0].endswith(f"max_degree {over} is above the cap of {MAX_DEGREE}")

    def test_dimension_mismatch_exits_2(self, tmp_path):
        pres = json.loads((DATA / "contraction_dim12.json").read_text())
        pres["expected_dim"] = 11
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(pres))
        proc = run_cli("build", "--input", str(bad), "--out", str(tmp_path / "o.json"))
        assert proc.returncode == 2
        assert b"found" in proc.stderr or b"12" in proc.stderr

    @pytest.mark.parametrize("expected", [3, 1])
    def test_no_acceptance_before_every_relation_is_in(self, tmp_path, expected):
        # x^3 = 0 and x^10 = 1 make the zero ring, which only the degree-10
        # relation shows
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(
            {"generators": ["x"], "relations": ["x^3", "x^10 - 1"], "expected_dim": expected}
        ))
        proc = run_cli("build", "--input", str(path), "--out", str(tmp_path / "o.json"),
                       timeout=30)
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            "error: build failed: DimensionMismatchError: presentation stabilized at "
            f"dimension 0, expected {expected}"
        ]
        assert not (tmp_path / "o.json").exists()


class TestAnalyze:
    def test_contraction_algebra_is_local(self, acon_algebra):
        proc = run_cli("analyze", "--input", str(acon_algebra), "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["radical_dim"] == 11
        assert doc["semisimple"] is False
        assert doc["profile"] == {"1": 1}

    def test_m2_plus_field(self, tmp_path):
        from algdeform.constructions import direct_sum, matrix_unit_algebra, scalar_field

        path = tmp_path / "m2q.json"
        direct_sum(matrix_unit_algebra(2), scalar_field()).save(path)
        proc = run_cli("analyze", "--input", str(path))
        assert proc.returncode == 0
        text = proc.stdout.decode()
        assert "radical dim: 0" in text
        assert "1^1 2^1" in text

    def test_dual_numbers(self, tmp_path):
        from algdeform.constructions import dual_numbers

        path = tmp_path / "dual.json"
        dual_numbers().save(path)
        proc = run_cli("analyze", "--input", str(path))
        text = proc.stdout.decode()
        assert "radical dim: 1" in text
        assert "1^1" in text

    def test_invalid_table_exits_2(self, tmp_path):
        from algdeform.constructions import dual_numbers

        doc = dual_numbers().to_json_dict()
        doc["table"][0][0][1] = "1"  # break the unit product
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("analyze", "--input", str(path))
        assert proc.returncode == 2

    def test_non_associative_table_gives_one_error_line(self, tmp_path):
        path = tmp_path / "random.json"
        doc = {"dim": 8, "unit": ["1"] + ["0"] * 7, "table": random_table(8, 8)}
        path.write_text(json.dumps(doc))
        proc = run_cli("analyze", "--input", str(path))
        assert proc.returncode == 2
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: algebra file {path} is not a valid algebra: ")
        assert ", first: associativity fails at basis triple (0, 0, 0)" in lines[0]

    def test_non_ascii_digit_names_the_literal(self, tmp_path):
        from algdeform.constructions import dual_numbers

        doc = dual_numbers().to_json_dict()
        doc["table"][1][1][0] = "\u00b2"
        path = tmp_path / "superscript.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("analyze", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr.decode("utf-8").splitlines() == [
            f"error: cannot read algebra {path}: malformed scalar literal '\u00b2'"
        ]


class TestScan:
    def test_dual_family_stable(self):
        proc = run_cli(
            "scan", "--input", str(DATA / "dual_number_family.json"),
            "--base", "1/4", "--count", "6", "--format", "json",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["verdict"]["kind"] == "StableSemisimpleTarget"
        assert doc["verdict"]["profile"] == {"1": 2}
        assert doc["verdict"]["start_index"] == 0

    def test_relation_family(self):
        proc = run_cli(
            "scan", "--input", str(DATA / "split_relation_family.json"),
            "--base", "1/4", "--count", "4",
        )
        assert proc.returncode == 0
        assert b"StableSemisimpleTarget" in proc.stdout

    def test_constant_dual_family_never(self, tmp_path):
        from algdeform.constructions import dual_numbers
        from algdeform.deformation import constant_family

        path = tmp_path / "const.json"
        path.write_text(json.dumps(constant_family(dual_numbers()).to_json_dict()))
        proc = run_cli("scan", "--input", str(path), "--count", "4")
        assert proc.returncode == 0
        assert b"NeverSemisimpleOnSchedule" in proc.stdout

    def test_bad_base_exits_2(self):
        proc = run_cli(
            "scan", "--input", str(DATA / "dual_number_family.json"), "--base", "-1"
        )
        assert proc.returncode == 2

    def test_non_associative_table_family_gives_one_error_line(self, tmp_path):
        path = tmp_path / "random_family.json"
        doc = {
            "kind": "table",
            "dim": 4,
            "unit": ["1", "0", "0", "0"],
            "table": random_table(4, 4, entry=lambda c: [str(c), "1"]),
        }
        path.write_text(json.dumps(doc))
        proc = run_cli("scan", "--input", str(path))
        assert proc.returncode == 2
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: family is not valid: ")
        assert ", first: associativity fails in t at basis triple " in lines[0]

    def test_count_above_the_cap_exits_2(self):
        from algdeform.deformation import MAX_SCAN_COUNT

        proc = run_cli(
            "scan", "--input", str(DATA / "dual_number_family.json"),
            "--count", str(MAX_SCAN_COUNT + 1),
        )
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            f"error: schedule count {MAX_SCAN_COUNT + 1} is above the cap of "
            f"{MAX_SCAN_COUNT} samples"
        ]

    def test_json_array_input_exits_2(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        proc = run_cli("scan", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error: ")
        assert b"Traceback" not in proc.stderr


def _one_gigabyte():
    """Hold a CLI subprocess to 1 GB of address space (``preexec_fn``)."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


DUAL_TABLE = [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]
DUAL_FAMILY = json.loads((DATA / "dual_number_family.json").read_text())


class TestMisshapenInput:
    """A string or object where an array belongs is refused, never split into
    characters; the one error line names the field."""

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("analyze", {"dim": 2, "unit": "10", "table": [["10", "00"], ["00", "01"]]},
             'cannot read algebra {path}: table[0][0] must be a JSON array, not "10"'),
            ("analyze", {"dim": 2, "unit": "10", "table": DUAL_TABLE},
             'cannot read algebra {path}: unit must be a JSON array, not "10"'),
            ("analyze", {"dim": 2, "labels": "1x", "unit": ["1", "0"], "table": DUAL_TABLE},
             'cannot read algebra {path}: labels must be a JSON array, not "1x"'),
            ("analyze", {"dim": 2, "unit": ["1", "0"], "table": {"0": DUAL_TABLE}},
             'cannot read algebra {path}: table must be a JSON array, not {{"0": [[["1", "0"], ["0"'),
            ("analyze", {"dim": 2, "unit": ["1", "0"],
                         "table": [[["1", ["0"]], ["0", "1"]], [["0", "1"], ["0", "0"]]]},
             "cannot read algebra {path}: table[0][0] must hold scalar literals"),
            ("scan", {**DUAL_FAMILY, "table": [DUAL_FAMILY["table"][0], [[["0"], ["1"]], [["0", "1"], "10"]]]},
             'cannot read family {path}: table[1][1][1] must be a JSON array, not "10"'),
            ("scan", {"kind": "relations", "generators": "x", "relations": ["x^2 - t"],
                      "expected_dim": 2},
             'cannot read family {path}: generators must be a JSON array, not "x"'),
            ("build", {"generators": "xy", "relations": ["x^2", "y^2", "x*y + y*x"],
                       "expected_dim": 4},
             'cannot read presentation {path}: generators must be a JSON array, not "xy"'),
            ("build", {"generators": ["x"], "relations": "x^2", "expected_dim": 2},
             'cannot read presentation {path}: relations must be a JSON array, not "x^2"'),
            ("build", {"generators": ["x", 1], "relations": ["x^2"], "expected_dim": 2},
             "cannot read presentation {path}: generators must be a JSON array of strings"),
            ("build", {"generators": ["x"], "relations": ["x^\u00b2"], "expected_dim": 2},
             "cannot read presentation {path}: unexpected character '\u00b2' (at position 2)"),
            # dimensions and degrees are JSON integers: never a bool, string or float
            ("analyze", {"dim": True, "unit": ["1"], "table": [[["1"]]]},
             "cannot read algebra {path}: dim must be a JSON integer, not true"),
            ("analyze", {"dim": "1", "unit": ["1"], "table": [[["1"]]]},
             'cannot read algebra {path}: dim must be a JSON integer, not "1"'),
            ("analyze", {"dim": 1.7, "unit": ["1"], "table": [[["1"]]]},
             "cannot read algebra {path}: dim must be a JSON integer, not 1.7"),
            ("analyze", {"dim": 2, "unit": ["1", "0"]},
             'cannot read algebra {path}: missing field "table"'),
            ("scan", {**DUAL_FAMILY, "dim": "2"},
             'cannot read family {path}: dim must be a JSON integer, not "2"'),
            ("scan", {"kind": "relations", "generators": ["x"], "relations": ["x^2 - t"],
                      "expected_dim": True},
             "cannot read family {path}: expected_dim must be a JSON integer, not true"),
            ("build", {"generators": ["x"], "relations": ["x^2"], "expected_dim": 2.9},
             "cannot read presentation {path}: expected_dim must be a JSON integer, not 2.9"),
            ("build", {"generators": ["x"], "relations": ["x^2"], "expected_dim": "2"},
             'cannot read presentation {path}: expected_dim must be a JSON integer, not "2"'),
            ("build", {"generators": ["x"], "relations": ["x^2"], "expected_dim": 2,
                       "max_degree": 3.5},
             "cannot read presentation {path}: max_degree must be a JSON integer, not 3.5"),
            ("build", {"generators": ["x"], "relations": ["x^2"]},
             'cannot read presentation {path}: missing field "expected_dim"'),
            # ``i`` is the imaginary unit, so no generator may take the name
            ("build", {"generators": ["x", "i"], "relations": ["x^2", "i^2"], "expected_dim": 3},
             "cannot read presentation {path}: 'i' is reserved for the imaginary unit"),
            ("obstruct", {"generators": ["x", "i"], "relations": [], "expected_dim": 3},
             "cannot read presentation {path}: 'i' is reserved for the imaginary unit"),
            ("scan", {"kind": "relations", "generators": ["i"], "relations": ["i^2 - t"],
                      "expected_dim": 2},
             "cannot read family {path}: 'i' is reserved for the imaginary unit"),
            # a document that is not an object
            ("obstruct", None, "cannot read algebra {path}: a table file must hold a JSON object"),
            ("obstruct", 5, "cannot read algebra {path}: a table file must hold a JSON object"),
            ("build", ["x"], "cannot read presentation {path}: a presentation file must hold a "
                             "JSON object"),
            # the zero ring is no algebra: no quotient or presentation gives it
            ("analyze", {"dim": 0, "table": [], "unit": []},
             "cannot read algebra {path}: dim must be at least 1"),
            ("scan", {"kind": "table", "dim": 0, "table": [], "unit": []},
             "cannot read family {path}: dim must be at least 1"),
            # a relation longer than max_degree could never enter the build: at
            # t = 0 the family fails to load, and where its top terms vanish only
            # at t = 0 the scan stops at the first sample
            ("scan", {"kind": "relations", "generators": ["x"], "relations": ["x^5 - t"],
                      "expected_dim": 2, "max_degree": 4},
             "cannot read family {path}: relation of degree 5 is above max_degree 4"),
            ("scan", {"kind": "relations", "generators": ["x"], "relations": ["x^2 - t*x^5"],
                      "expected_dim": 2, "max_degree": 4},
             "relation of degree 5 is above max_degree 4"),
        ],
    )
    def test_exits_2_with_one_line_naming_the_field(self, tmp_path, command, doc, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(command, "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr.decode("utf-8").splitlines() == ["error: " + message.format(path=path)]

    def test_huge_dim_without_labels_exits_2_at_once(self, tmp_path):
        """No default label is made for a dim the table does not have: 10^12
        of them would take all memory, so the run is held to 1 GB and 30 s."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"dim": 10 ** 12, "unit": ["1", "0"], "table": DUAL_TABLE}))
        proc = run_cli("analyze", "--input", str(path), timeout=30, preexec_fn=_one_gigabyte)
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            f"error: cannot read algebra {path}: structure tensor has wrong shape"
        ]

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            # a word of 300M letters, and a t-polynomial of 300M coefficients
            ("build", {"generators": ["x"], "relations": ["x^2 - x^300000000"], "expected_dim": 2},
             "cannot read presentation {path}: exponent 300000000 is above the cap of 64 "
             "(at position 8)"),
            ("scan", {"kind": "relations", "generators": ["x"], "relations": ["x^2 - t^300000000"],
                      "expected_dim": 2},
             "cannot read family {path}: exponent 300000000 is above the cap of 64 (at position 8)"),
            # a build walks every word up to max_degree: 2^(D+1) - 1 on two generators
            ("build", {"generators": ["x", "y"], "relations": ["x*y - y*x"], "expected_dim": 1000,
                       "max_degree": 15},
             "cannot read presentation {path}: max_degree 15 walks 65535 words over 2 generators, "
             "above the cap of 32768"),
            ("build", {"generators": ["x", "y"], "relations": ["x*y - y*x"], "expected_dim": 1000,
                       "max_degree": 40},
             "cannot read presentation {path}: max_degree 40 walks 2199023255551 words over 2 "
             "generators, above the cap of 32768"),
            # a product of sums doubles its terms with each factor (x+y)
            ("build", {"generators": ["x", "y"], "relations": ["*".join(["(x+y)"] * 16)],
                       "expected_dim": 2},
             "cannot read presentation {path}: a product of 32768 by 2 terms is above the cap "
             "of 32768 words (at position 89)"),
            # 15 factors (x+y) have degree 15, above the default max_degree 14 on
            # two generators
            ("build", json.loads((TEST_DATA / "relation_above_max_degree.json").read_text()),
             "cannot read presentation {path}: relation of degree 15 is above max_degree 14"),
            # ten such products summed, each within the per-product cap: the
            # relation's budget stops the second one
            ("build", json.loads((TEST_DATA / "summed_products.json").read_text()),
             "cannot read presentation {path}: this product brings the terms formed in one "
             "relation to 131124, above the budget of 131072 (at position 175)"),
            # x*y - y*x at max_degree 14 walks 32767 words, within the word cap,
            # but its rows pass the row cap at degree 11
            ("build", json.loads((TEST_DATA / "commuting_rows.json").read_text()),
             "build failed: NoStabilizationError: the build would eliminate 9217 relation rows "
             "by degree 11, above the cap of 8192"),
        ],
    )
    def test_unbounded_presentation_text_exits_2_at_once(self, tmp_path, command, doc, message):
        """Uncapped, each of these ran for minutes or took gigabytes, so the
        run is held to 1 GB and 30 s."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        extra = ["--count", "2"] if command == "scan" else ["--out", str(tmp_path / "o.json")]
        proc = run_cli(command, "--input", str(path), *extra, timeout=30, preexec_fn=_one_gigabyte)
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == ["error: " + message.format(path=path)]

    def test_a_power_of_i_is_read_mod_4(self, tmp_path):
        """i^30000000 is 1, with no 30M multiplies: x^2 - 1 builds at once."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps(
            {"generators": ["x"], "relations": ["x^2 - i^30000000"], "expected_dim": 2}
        ))
        proc = run_cli("build", "--input", str(path), "--out", str(tmp_path / "o.json"),
                       "--format", "json", timeout=30, preexec_fn=_one_gigabyte)
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout)["basis"] == ["1", "x"]

    def test_trials_above_the_cap_exit_2(self):
        from algdeform.obstruction import MAX_SAMPLING_WORK

        proc = run_cli(
            "obstruct", "--input", str(DATA / "contraction_dim12.json"), "--trials", "100000000",
            timeout=60,  # uncapped, the run would not end
        )
        assert proc.returncode == 2
        # the contraction algebra has dimension 12 and 5 semisimple profiles
        assert proc.stderr.decode().splitlines() == [
            f"error: sampling work 100000000 trials * 5 profiles * 12^3 = {10 ** 8 * 5 * 12 ** 3} "
            f"is above the cap of {MAX_SAMPLING_WORK}; lower --trials, or pass --trials 0 to "
            f"skip sampling"
        ]

    def test_trials_cap_is_checked_before_any_sampling(self, m2_algebra, monkeypatch, capsys):
        from algdeform import cli, obstruction

        def no_work(*args):
            raise AssertionError("work was done past the cap")

        # M2: dimension 4, with the 2 profiles 1^4 and 2^1
        monkeypatch.setattr(obstruction, "MAX_SAMPLING_WORK", 4 * 2 * 4 ** 3 - 1)
        monkeypatch.setattr(obstruction, "generated_subalgebra_dim", no_work)
        monkeypatch.setattr(obstruction, "sampled_lower_bound", no_work)
        code = cli.main(["obstruct", "--input", str(m2_algebra),
                         "--generators", "0,1,1,0;1,0,0,0", "--trials", "4"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: sampling work 4 trials * 2 profiles * 4^3 = 512 is above the cap of 511; "
            "lower --trials, or pass --trials 0 to skip sampling"
        ]


class TestObstruct:
    def test_contraction_algebra_targets(self):
        proc = run_cli(
            "obstruct", "--input", str(DATA / "contraction_dim12.json"),
            "--generators", "x,y", "--trials", "5", "--format", "json",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["dim_in_N"] == 12
        statuses = {row["profile"]: row["status"] for row in doc["targets"]}
        assert statuses == {
            "1^12": "NotExcluded",
            "1^8 2^1": "NotExcluded",
            "1^4 2^2": "NotExcluded",
            "2^3": "NotExcluded",
            "1^3 3^1": "Excluded",
        }

    def test_algebra_file_with_coordinate_generators(self, m2_algebra):
        proc = run_cli(
            "obstruct", "--input", str(m2_algebra),
            "--generators", "0,1,1,0;1,0,0,0", "--trials", "2",
        )
        assert proc.returncode == 0
        assert b"dim_in_N: 4" in proc.stdout

    def test_not_generating_exits_2(self, m2_algebra):
        proc = run_cli(
            "obstruct", "--input", str(m2_algebra),
            "--generators", "e11,e11", "--trials", "1",
        )
        assert proc.returncode == 2
        assert b"dimension 2" in proc.stderr

    def test_negative_trials_exit_2(self, m2_algebra):
        proc = run_cli(
            "obstruct", "--input", str(m2_algebra),
            "--generators", "0,1,1,0;1,0,0,0", "--trials", "-1",
        )
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == ["error: --trials must be nonnegative"]

    def test_dimension_above_the_cap_exits_2_before_any_product(self, m2_algebra, monkeypatch, capsys):
        from algdeform import analysis, cli, obstruction

        def no_work(*args):
            raise AssertionError("the generated subalgebra was computed")

        monkeypatch.setattr(analysis, "MAX_ENUMERATE_DIM", 3)
        monkeypatch.setattr(obstruction, "generated_subalgebra_dim", no_work)
        code = cli.main(["obstruct", "--input", str(m2_algebra),
                         "--generators", "0,1,1,0;1,0,0,0", "--trials", "1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: dimension 4 is above the cap of 3"]

    def test_missing_label_is_named_with_the_labels_of_the_file(self):
        path = REPO / "tests" / "data" / "gaussian_m2.json"
        proc = run_cli("obstruct", "--input", str(path))  # the default --generators x,y
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            f"error: no label 'x' in {path}; its labels are b0, b1, b2, b3"
        ]

    def test_missing_generator_is_named_with_the_generators_of_the_file(self):
        path = DATA / "contraction_dim12.json"
        proc = run_cli("obstruct", "--input", str(path), "--generators", "x,z")
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            f"error: no generator 'z' in {path}; its generators are x, y"
        ]

    def test_non_numeric_coordinates_exit_2(self, m2_algebra):
        proc = run_cli("obstruct", "--input", str(m2_algebra), "--generators", "a,b;c,d")
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error: bad coordinate vector 'a,b'")
        assert b"Traceback" not in proc.stderr


class TestEnumerate:
    def test_twelve(self):
        proc = run_cli("enumerate", "12")
        assert proc.returncode == 0
        assert proc.stdout.decode().splitlines() == [
            "1^12", "1^8 2^1", "1^4 2^2", "2^3", "1^3 3^1",
        ]

    def test_four_and_one(self):
        assert run_cli("enumerate", "4").stdout.decode().splitlines() == ["1^4", "2^1"]
        assert run_cli("enumerate", "1").stdout.decode().splitlines() == ["1^1"]

    def test_zero_exits_2(self):
        assert run_cli("enumerate", "0").returncode == 2

    def test_dimension_above_the_cap_exits_2(self):
        from algdeform.analysis import MAX_ENUMERATE_DIM

        over = MAX_ENUMERATE_DIM + 1
        proc = run_cli("enumerate", str(over))
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            f"error: dimension {over} is above the cap of {MAX_ENUMERATE_DIM}"
        ]


class TestIdentitySpan:
    def test_m2(self, m2_algebra):
        proc = run_cli("identity-span", "--input", str(m2_algebra), "--m", "1",
                       "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["span_dim"] == 3
        assert doc["ideal_dim"] == 4

    def test_m2_vanishing(self, m2_algebra):
        proc = run_cli("identity-span", "--input", str(m2_algebra), "--m", "2")
        assert b"span dim: 0" in proc.stdout

    def test_work_above_the_cap_exits_2_before_any_product(self, m2_algebra, monkeypatch, capsys):
        from algdeform import analysis, cli

        def no_work(*args):
            raise AssertionError("a subset product was evaluated")

        monkeypatch.setattr(analysis, "MAX_IDENTITY_WORK", 23)
        monkeypatch.setattr(analysis.StructureAlgebra, "sparse_multiply", no_work)
        code = cli.main(["identity-span", "--input", str(m2_algebra), "--m", "1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: standard identity of degree 2 on dim 4 takes 24 subset products, "
            "above the cap of 23"
        ]


class TestNoCyclicGarbage:
    """A JSON-format call leaves nothing for the cycle collector: objects are
    freed by reference counting as soon as they are dropped."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--input", str(DATA / "contraction_dim12.json"), "--out", "{tmp}/alg.json"],
            ["analyze", "--input", "{m2}"],
            ["scan", "--input", str(DATA / "dual_number_family.json"), "--count", "3"],
            ["scan", "--input", str(DATA / "split_relation_family.json"), "--count", "2"],
            ["obstruct", "--input", "{m2}", "--generators", "0,1,1,0;1,0,0,0", "--trials", "2"],
            ["enumerate", "12"],
            ["identity-span", "--input", "{m2}", "--m", "1"],
        ],
    )
    def test_json_call_leaves_no_cyclic_garbage(self, argv, m2_algebra, tmp_path, capsys):
        from algdeform import cli

        argv = [a.format(tmp=tmp_path, m2=m2_algebra) for a in argv] + ["--format", "json"]
        assert cli.main(argv) == 0  # first use: lazy imports and caches
        gc.collect()
        gc.disable()
        try:
            assert cli.main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        first, second = capsys.readouterr().out.split("\n}\n", 1)
        assert second == first + "\n}\n"


class TestUsageAndDeterminism:
    def test_usage_error_exits_1(self):
        assert run_cli("scan").returncode == 1
        assert run_cli("unknown-command").returncode == 1

    def test_byte_identical_runs(self, acon_algebra, m2_algebra, tmp_path):
        out = tmp_path / "rebuilt.json"
        commands = [
            ("build", "--input", str(DATA / "contraction_dim12.json"),
             "--out", str(out), "--format", "json"),
            ("analyze", "--input", str(acon_algebra), "--format", "json"),
            ("scan", "--input", str(DATA / "dual_number_family.json"),
             "--base", "1/4", "--count", "6", "--format", "json"),
            ("obstruct", "--input", str(DATA / "contraction_dim12.json"),
             "--generators", "x,y", "--trials", "3", "--format", "json"),
            ("enumerate", "12", "--format", "json"),
            ("identity-span", "--input", str(m2_algebra), "--m", "1",
             "--format", "json"),
        ]
        for argv in commands:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first.returncode == second.returncode == 0, first.stderr.decode()
            assert first.stdout == second.stdout, argv


class TestStartup:
    def test_cli_import_skips_modules_analyze_does_not_use(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, algdeform.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('algdeform'))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, cwd=REPO, check=True
        )
        assert proc.stdout.decode().split() == [
            "algdeform", "algdeform.algebra", "algdeform.analysis",
            "algdeform.cli", "algdeform.linalg",
        ]

    def test_package_names_load_on_first_use(self):
        import algdeform

        for name in algdeform.__all__:
            assert getattr(algdeform, name).__name__ == name
        with pytest.raises(AttributeError):
            algdeform.no_such_name
