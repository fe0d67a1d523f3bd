import json
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

import torusloc.model as model_module
from torusloc.cli import main
from torusloc.expr import MAX_POWER

from helpers import (
    INT_DIGIT_LIMIT,
    ref_build_cp_product,
    ref_build_sphere_product,
    ref_cp2_plan,
    ref_rank1_plan,
    ref_wall_entries,
)
from torusloc.closedforms import sphere_torus_pairing


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPair:
    def test_sphere_pairing(self, capsys):
        code, out, _ = run(capsys, "pair", "--model", "spheres:3", "--class", "L^2",
                           "--path", "0:+")
        assert code == 0
        assert out == "6\n"

    def test_off_degree_prints_zero(self, capsys):
        code, out, _ = run(capsys, "pair", "--model", "spheres:3", "--class", "L^3",
                           "--path", "0:+")
        assert code == 0
        assert out == "0\n"

    def test_fraction_output(self, capsys):
        code, out, _ = run(capsys, "pair", "--model", "spheres:5", "--class",
                           "weyl(1/2*v1^2)", "--path", "0:+")
        assert code == 0
        assert out == "-3/2\n"

    def test_float_flag(self, capsys):
        code, out, _ = run(capsys, "pair", "--model", "spheres:3", "--class", "L^2",
                           "--path", "0:+", "--float")
        assert code == 0
        assert out.startswith("6 ~= 6")

    def test_wall_base_point_is_domain_error(self, capsys):
        code, _, err = run(capsys, "pair", "--model", "spheres:3", "--class", "L^2",
                           "--path", "1:+")
        assert code == 3
        assert "wall" in err

    def test_syntax_error_is_domain_error(self, capsys):
        code, _, err = run(capsys, "pair", "--model", "spheres:3", "--class", "v1^-1",
                           "--path", "0:+")
        assert code == 3
        assert "column" in err

    def test_huge_power_is_refused_before_the_model(self, capsys, monkeypatch):
        def no_model(spec):
            raise AssertionError("the model was built")

        monkeypatch.setattr("torusloc.cli.resolve_model", no_model)
        code, out, err = run(capsys, "pair", "--model", "spheres:3", "--class",
                             "L^99999999999", "--path", "0:+")
        assert code == 3
        assert out == ""
        assert "at most 2000" in err and "column 3" in err

    def test_path_without_a_direction_is_usage_error(self, capsys):
        code, out, err = run(capsys, "pair", "--model", "spheres:3", "--class", "L^2", "--path", "0:x")
        assert (code, out) == (2, "")
        assert err == "error: path must look like 'p0:+' or 'p0:-', got '0:x'\n"

    @pytest.mark.parametrize("text, message", [
        ("", "expected a generator, found 'end of input' (line 1, column 1)"),
        ("line(a)", "expected an integer (line 1, column 6)"),
        ("2/x*L", "expected a positive integer denominator (line 1, column 3)"),
        ("line(1", "expected ')', found 'end of input' (line 1, column 7)"),
        # digits other than 0-9 printed 6, 18 and 6 while the tokenizer took any Unicode digit
        ("L^\u0662", "unexpected character '\u0662' (line 1, column 3)"),
        ("\u0663*L^2", "unexpected character '\u0663' (line 1, column 1)"),
        ("L^\uff12", "unexpected character '\uff12' (line 1, column 3)"),
        ("line(\u0661,0)", "unexpected character '\u0661' (line 1, column 6)"),
    ])
    def test_class_text_errors_name_their_position(self, capsys, text, message):
        code, out, err = run(capsys, "pair", "--model", "spheres:3", "--class", text, "--path", "0:+")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_zero_denominator_path_is_usage_error(self, capsys):
        code, out, err = run(capsys, "pair", "--model", "spheres:3", "--class", "L^2",
                             "--path", "1/0:+")
        assert code == 2
        assert out == ""
        assert "zero denominator" in err and "Traceback" not in err

    def test_missing_plan_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "pair", "--model", "spheres:3", "--class", "L^2")
        assert code == 2


class TestVolume:
    def test_sphere_torus(self, capsys):
        code, out, _ = run(capsys, "volume", "--model", "spheres:3", "--group", "torus",
                           "--path", "0:+")
        assert code == 0
        assert out == "3 * (2pi)^2\n"

    def test_sphere_weyl(self, capsys):
        code, out, _ = run(capsys, "volume", "--model", "spheres:5", "--group", "weyl",
                           "--path", "0:+")
        assert code == 0
        assert out == "5/2 * (2pi)^2\n"

    def test_cp2_weyl_swapped(self, capsys):
        code, out, _ = run(capsys, "volume", "--model", "cp2:4", "--group", "weyl",
                           "--cp2-variant", "swapped")
        assert code == 0
        assert out == "1 * (2pi)^0\n"

    @pytest.mark.parametrize("direction", ["+", "-"])
    def test_sphere_torus_at_a_base_point(self, capsys, direction):
        # the volume at 1/2, not the chamber polynomial continued to 0 (3 * (2pi)^2)
        code, out, _ = run(capsys, "volume", "--model", "spheres:3", "--group", "torus",
                           "--path", f"1/2:{direction}")
        assert code == 0
        assert out == "11/4 * (2pi)^2\n"

    @pytest.mark.parametrize("command, expected", [
        ("volume", "11/4 * (2pi)^2\n"),
        ("pair", "6\n"),  # pair takes L itself, not L - <p0, u>
    ])
    def test_negative_base_point_is_written_with_an_equals_sign(self, capsys, command, expected):
        what = ("--group", "torus") if command == "volume" else ("--class", "L^2")
        assert run(capsys, command, "--model", "spheres:3", *what, "--path=-1/2:+") == (0, expected, "")
        # after a space, argparse reads "-1/2:+" as an option: a usage error
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--model", "spheres:3", *what, "--path", "-1/2:+"])
        assert exit_info.value.code == 2
        assert "argument --path: expected one argument" in capsys.readouterr().err

    def test_weyl_away_from_the_origin_is_domain_error(self, capsys):
        code, out, err = run(capsys, "volume", "--model", "spheres:5", "--group", "weyl",
                             "--path", "1/2:+")
        assert code == 3
        assert out == ""
        assert "origin only" in err and "Traceback" not in err


class TestWalls:
    def test_sphere_walls(self, capsys):
        code, out, _ = run(capsys, "walls", "--model", "spheres:3", "--xi", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("-3: ")
        assert lines[-1].startswith("3: ")
        assert len(lines) == 4

    def test_cp_direction(self, capsys):
        code, out, _ = run(capsys, "walls", "--model", "cp2:2", "--xi", "1,0")
        assert code == 0
        assert [line.split(":")[0] for line in out.strip().splitlines()] == ["-4", "-1", "2"]

    @pytest.mark.parametrize("spec, xi", [("spheres:3", "0"), ("cp2:2", "0,0")])
    def test_zero_direction_is_domain_error(self, capsys, spec, xi):
        # it used to exit 0, listing every point on one wall at 0
        assert run(capsys, "walls", "--model", spec, "--xi", xi) == (3, "", "error: direction must be nonzero\n")


class TestPlanCommand:
    def test_emitted_plan_reproduces_path(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        code, _, _ = run(capsys, "plan", "--model", "spheres:3", "--path", "0:+",
                         "--out", str(plan_file))
        assert code == 0
        data = json.loads(plan_file.read_text())
        assert len(data) == 4
        code, out_path, _ = run(capsys, "pair", "--model", "spheres:3", "--class", "L^2",
                                "--path", "0:+")
        code, out_plan, _ = run(capsys, "pair", "--model", "spheres:3", "--class", "L^2",
                                "--plan", str(plan_file))
        assert out_path == out_plan

    def test_plan_to_stdout(self, capsys):
        code, out, _ = run(capsys, "plan", "--model", "cp2:4", "--cp2-variant", "general")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 27

    def test_cp2_variant_on_sphere_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "plan", "--model", "spheres:3", "--cp2-variant", "swapped")
        assert code == 3

    def test_plan_file_with_foreign_points_is_domain_error(self, capsys, tmp_path):
        # used to exit 0 and re-emit the cp2:4 terms for spheres:4
        plan_file = str(tmp_path / "cp2_4.json")
        assert run(capsys, "plan", "--model", "cp2:4", "--cp2-variant", "swapped",
                   "--out", plan_file)[0] == 0
        code, out, err = run(capsys, "pair", "--model", "spheres:4", "--class", "L^2",
                             "--plan", plan_file)
        assert (code, out, err) == (3, "", "error: model has no fixed point 'F{1,2,3,4}|{}|{}'\n")
        assert run(capsys, "plan", "--model", "spheres:4", "--plan", plan_file) == (code, out, err)

    def test_plan_file_with_foreign_points_on_a_model_file(self, capsys, tmp_path):
        model_file, plan_file = tmp_path / "model.json", tmp_path / "plan.json"
        model_file.write_text(json.dumps(SPHERE_MODEL))
        plan_file.write_text(json.dumps(SPHERE_PLAN + [{"coefficient": 1, "fixed_point": "x", "flag": [[1]]}]))
        code, out, err = run(capsys, "plan", "--model", str(model_file), "--plan", str(plan_file))
        assert (code, out, err) == (3, "", "error: model has no fixed point 'x'\n")

    @pytest.mark.parametrize("spec, source", [
        ("spheres:4", "--path=1:+"),
        ("spheres:5", "--path=-2:-"),
        ("cp2:4", "--cp2-variant=mirror"),
    ])
    def test_plan_file_round_trip_is_byte_identical(self, capsys, tmp_path, spec, source):
        plan_file = tmp_path / "plan.json"
        assert run(capsys, "plan", "--model", spec, source, "--out", str(plan_file))[0] == 0
        code, out, err = run(capsys, "plan", "--model", spec, "--plan", str(plan_file))
        assert (code, out, err) == (0, plan_file.read_text(encoding="utf-8"), "")


class TestModelSizes:
    @pytest.mark.parametrize("size", ["abc", "1_0", " 3", "+3", "", "3 ", "\u0663"],
                             ids=["letters", "underscore", "space", "plus", "empty", "trailing", "arabic"])
    @pytest.mark.parametrize("argv", [
        ("walls", "--model", "spheres:SIZE", "--xi", "1"),
        ("pair", "--model", "spheres:SIZE", "--class", "L^2", "--path", "0:+"),
        ("volume", "--model", "cp2:SIZE", "--group", "weyl", "--cp2-variant", "swapped"),
    ], ids=["walls", "pair", "volume"])
    def test_size_outside_the_ascii_digits_is_usage_error(self, capsys, size, argv):
        # int() read '1_0' as 10, ' 3' and '+3' as 3, and ended 'abc' in its own message
        argv = [a.replace("SIZE", size) for a in argv]
        spec = argv[2]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (
            2, "", f"error: --model {spec!r}: the size must be written in the digits 0-9\n")

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() reads decimal literals of any length")
    def test_size_longer_than_int_reads_is_usage_error(self, capsys):
        size = "9" * (INT_DIGIT_LIMIT + 1)
        code, out, err = run(capsys, "walls", "--model", f"spheres:{size}", "--xi", "1")
        assert (code, out) == (2, "")
        assert err == f"error: --model 'spheres:...': the size has {len(size)} digits, too many to read\n"

    def test_ascii_digit_sizes_still_read(self, capsys):
        assert run(capsys, "walls", "--model", "spheres:03", "--xi", "1")[:2] == (
            0, "-3: f{1,2,3}\n-1: f{2,3} f{1,3} f{1,2}\n1: f{3} f{2} f{1}\n3: f{}\n")


class TestNumberInputs:
    """--xi, --space, --order and the --path base point go through the reader
    of --model sizes: int() and Fraction() took '1_0', whitespace and
    non-ASCII digits, and ended 'abc' in a message naming no option."""

    @pytest.mark.parametrize("text", ["1_0", "\u0661", " 1", "1 ", "1\t", "abc"],
                             ids=["underscore", "arabic", "leading", "trailing", "tab", "letters"])
    @pytest.mark.parametrize("argv, option, noun", [
        (("walls", "--model", "spheres:3", "--xi", "TEXT"), "--xi", "each entry"),
        (("walls", "--model", "cp2:4", "--xi", "1,TEXT"), "--xi", "each entry"),
        (("segre", "--space", "TEXT", "--order", "1"), "--space", "each weight and residual entry"),
        (("ring", "--space", "1:2,TEXT;2:0,1"), "--space", "each weight and residual entry"),
        (("segre", "--space", "1", "--order", "TEXT"), "--order", "the order"),
        (("volume", "--model", "spheres:3", "--group", "torus", "--path", "TEXT/2:+"),
         "--path", "the base point"),
    ], ids=["walls", "walls-rank2", "segre-space", "ring-space", "segre-order", "volume-path"])
    def test_number_outside_the_ascii_digits_is_usage_error(self, capsys, text, argv, option, noun):
        # '1_0' was 10, ' 1' and the Arabic-Indic one were 1
        argv = [a.replace("TEXT", text) for a in argv]
        value = argv[argv.index(option) + 1]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {option} {value!r}: {noun} must be written in the digits 0-9\n"

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() reads decimal literals of any length")
    def test_entry_longer_than_int_reads_is_usage_error(self, capsys):
        entry = "9" * (INT_DIGIT_LIMIT + 1)
        code, out, err = run(capsys, "walls", "--model", "cp2:4", "--xi", f"1,{entry}")
        assert (code, out) == (2, "")
        assert err == f"error: --xi '1,...': each entry has {len(entry)} digits, too many to read\n"

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="Fraction() reads decimal literals of any length")
    @pytest.mark.parametrize("shape", ["1/{}", "{}.5"], ids=["denominator", "decimal"])
    def test_base_point_with_a_part_too_long_is_usage_error(self, capsys, shape):
        # used to say "must be written in the digits 0-9" and quote every digit
        long = "9" * max(5000, INT_DIGIT_LIMIT + 1)
        code, out, err = run(capsys, "volume", "--model", "spheres:3", "--group", "torus",
                             "--path", shape.format(long) + ":+")
        assert (code, out) == (2, "")
        assert err == f"error: --path '...:+': the base point has {len(long)} digits, too many to read\n"

    @pytest.mark.parametrize("argv, expected", [
        (("walls", "--model", "spheres:3", "--xi", "-1"),
         "-3: f{}\n-1: f{3} f{2} f{1}\n1: f{2,3} f{1,3} f{1,2}\n3: f{1,2,3}\n"),
        (("walls", "--model", "spheres:2", "--xi", "+2"), "-4: f{1,2}\n0: f{2} f{1}\n4: f{}\n"),
        (("segre", "--space=-1:1;2:-3", "--order", "+1"), "s_0 = -1/2\ns_1 = -5/4*u\n"),
        (("volume", "--model", "spheres:3", "--group", "torus", "--path", "1.5:+"), "9/8 * (2pi)^2\n"),
        (("volume", "--model", "spheres:3", "--group", "torus", "--path=-1/2:-"), "11/4 * (2pi)^2\n"),
    ])
    def test_signed_and_decimal_numbers_still_read(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")


class TestRingSegre:
    def test_classical_projective_line(self, capsys):
        code, out, _ = run(capsys, "ring", "--space", "1;1")
        assert code == 0
        assert out == "h^2\n"

    def test_weighted_relation(self, capsys):
        code, out, _ = run(capsys, "ring", "--space", "1;2")
        assert code == 0
        assert out == "2*h^2\n"

    def test_equivariant_relation(self, capsys):
        code, out, _ = run(capsys, "ring", "--space", "1:2")
        assert code == 0
        assert out == "h + 2*u\n"

    def test_segre_pieces(self, capsys):
        code, out, _ = run(capsys, "segre", "--space", "1:-1", "--order", "2")
        assert code == 0
        assert out == "s_0 = 1\ns_1 = u\ns_2 = u^2\n"

    def test_negative_segre_order_is_usage_error(self, capsys):
        # used to exit 0 and print nothing
        code, out, err = run(capsys, "segre", "--space", "1:-1", "--order", "-1")
        assert code == 2
        assert out == ""
        assert "order must be nonnegative" in err

    @pytest.mark.parametrize("text, message", [
        ("1;;2", "each weight and residual entry must be written in the digits 0-9"),
        # a trailing ':' read as no residuals: "1:;2:" printed the pieces of "1;2"
        ("1:;2:", "each weight and residual entry must be written in the digits 0-9"),
        ("1:", "each weight and residual entry must be written in the digits 0-9"),
        ("2:1,0;1:", "each weight and residual entry must be written in the digits 0-9"),
        ("1:1;2", "residual vector () has length 0, expected 1"),
        ("1:1,2;3:4", "residual vector (4,) has length 1, expected 2"),
        ("0", "circle weight 0: the circle must fix only the origin"),
        ("2;0:1", "circle weight 0: the circle must fix only the origin"),
    ])
    @pytest.mark.parametrize("command", [("segre", "--order", "1"), ("ring",)], ids=["segre", "ring"])
    def test_space_errors_name_the_option(self, capsys, command, text, message):
        # the empty line, ragged lines and a zero weight named no option
        code, out, err = run(capsys, command[0], "--space", text, *command[1:])
        assert (code, out, err) == (2, "", f"error: --space {text!r}: {message}\n")

    def test_segre_order_above_max_power_is_usage_error(self, capsys, monkeypatch):
        # order 3000 used to print 5.7 MB; the pieces are allocated up front
        def refuse(*args):
            raise AssertionError("the Segre pieces were computed")

        monkeypatch.setattr("torusloc.cli.weighted_segre", refuse)
        code, out, err = run(capsys, "segre", "--space", "1:-1", "--order", str(MAX_POWER + 1))
        assert (code, out, err) == (2, "", f"error: order must be at most {MAX_POWER}\n")
        monkeypatch.undo()
        code, out, _ = run(capsys, "segre", "--space", "1:-1", "--order", str(MAX_POWER))
        assert code == 0 and out.count("\n") == MAX_POWER + 1

    def test_bad_space_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "ring", "--space", "1:1;2")
        assert code == 2


class TestModelFiles:
    def test_model_file_roundtrip(self, capsys, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({
            "rank": 1,
            "fixed_points": [
                {"id": "n", "moment": [1], "weights": [[1]]},
                {"id": "s", "moment": [-1], "weights": [[-1]]},
            ],
        }))
        code, out, _ = run(capsys, "pair", "--model", str(model_file), "--class", "L^0",
                           "--path", "0:+")
        assert code == 0
        assert out == "1\n"

    def test_invalid_model_is_domain_error(self, capsys, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({
            "rank": 1,
            "fixed_points": [{"id": "n", "moment": [1], "weights": [[0]]}],
        }))
        code, _, err = run(capsys, "pair", "--model", str(model_file), "--class", "L^0",
                           "--path", "0:+")
        assert code == 3
        assert "n" in err

    POINTS = [{"id": "n", "moment": [1], "weights": [[1]]}, {"id": "s", "moment": [-1], "weights": [[-1]]}]

    @pytest.mark.parametrize("model, message", [
        ([], "model file must contain a JSON object"),
        ({"rank": 1}, "model file is missing field 'fixed_points'"),
        ({"rank": 1, "fixed_points": {}}, "fixed_points must be a list"),
        ({"rank": 1, "fixed_points": [{"moment": [1], "weights": [[1]]}]},
         "each fixed point needs an 'id' field"),
        ({"rank": 0, "fixed_points": POINTS}, "rank must be a positive integer"),
        ({"rank": 1, "fixed_points": POINTS, "global_stabilizer_order": 0},
         "global_stabilizer_order must be positive"),
        ({"rank": 1, "fixed_points": POINTS, "roots": [[1], [-1], [1]]}, "root list must have even length"),
        ({"rank": 1, "fixed_points": POINTS, "roots": [[1, 0], [-1, 0]]}, "root (1, 0) has length 2, expected 1"),
    ], ids=["not-an-object", "no-fixed-points", "fixed-points-not-a-list", "entry-without-id",
            "rank-0", "stabilizer-order-0", "odd-root-list", "root-length"])
    def test_model_file_errors_are_domain_errors(self, capsys, tmp_path, model, message):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(model))
        code, out, err = run(capsys, "pair", "--model", str(model_file), "--class", "L", "--path", "0:+")
        assert (code, out, err) == (3, "", f"error: {message}\n")


SPHERE_MODEL = {
    "rank": 1,
    "fixed_points": [
        {"id": "n", "moment": [1], "weights": [[1], [1], [1]]},
        {"id": "s", "moment": [-1], "weights": [[-1], [-1], [-1]]},
    ],
    "roots": [[1], [-1]],
    "weyl_order": 2,
}
SPHERE_PLAN = [{"coefficient": 1, "fixed_point": "n", "flag": [[1]]}]


def _pair_files(capsys, tmp_path, model, plan, cls="weyl(L^0)"):
    model_file = tmp_path / "model.json"
    plan_file = tmp_path / "plan.json"
    model_file.write_text(model if isinstance(model, str) else json.dumps(model))
    plan_file.write_text(plan if isinstance(plan, str) else json.dumps(plan))
    return run(capsys, "pair", "--model", str(model_file), "--class", cls,
               "--plan", str(plan_file))


def _with(obj, path, value):
    """A deep copy of a JSON object with the entry at path replaced."""
    out = json.loads(json.dumps(obj))
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


class TestStrictFiles:
    def test_valid_files(self, capsys, tmp_path):
        code, out, _ = _pair_files(capsys, tmp_path, SPHERE_MODEL, SPHERE_PLAN)
        assert code == 0
        assert out == "-1/2\n"

    @pytest.mark.parametrize(
        "path, value",
        [
            (("fixed_points", 0, "weights", 0, 0), 1.7),
            (("fixed_points", 0, "weights", 0, 0), "3"),
            (("fixed_points", 0, "weights", 0, 0), True),
            (("roots", 0, 0), 1.0),
            (("roots", 1, 0), "-1"),
            (("rank",), 1.5),
            (("rank",), True),
            (("weyl_order",), 0),
            (("weyl_order",), -2),
            (("weyl_order",), 2.5),
            (("weyl_order",), "2"),
            (("global_stabilizer_order",), 1.9),
            (("global_stabilizer_order",), False),
            (("fixed_points", 1, "moment", 0), True),
            (("roots",), 5),
        ],
    )
    def test_bad_model_value_is_domain_error(self, capsys, tmp_path, path, value):
        code, out, err = _pair_files(capsys, tmp_path, _with(SPHERE_MODEL, path, value),
                                     SPHERE_PLAN)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "path, value",
        [
            ((0, "coefficient"), 1.9),
            ((0, "coefficient"), "1"),
            ((0, "coefficient"), True),
            ((0, "flag", 0, 0), 1.0),
            ((0, "flag", 0, 0), "1"),
            ((0, "flag", 0, 0), True),
            ((0, "flag", 0), 1),
        ],
    )
    def test_bad_plan_value_is_domain_error(self, capsys, tmp_path, path, value):
        code, out, err = _pair_files(capsys, tmp_path, SPHERE_MODEL,
                                     _with(SPHERE_PLAN, path, value))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["model", "plan"])
    def test_malformed_json_is_domain_error(self, capsys, tmp_path, kind):
        model = '{"rank": 1, "fixed_points": [' if kind == "model" else SPHERE_MODEL
        plan = '[{"coefficient": 1,,}]' if kind == "plan" else SPHERE_PLAN
        code, out, err = _pair_files(capsys, tmp_path, model, plan)
        assert code == 3
        assert out == ""
        assert "malformed JSON" in err

    @pytest.mark.parametrize("kind", ["model", "plan"])
    def test_deeply_nested_json_is_domain_error(self, capsys, tmp_path, kind):
        # used to end in a RecursionError traceback with exit code 1
        nested = "[" * 100_000 + "]" * 100_000
        model = nested if kind == "model" else SPHERE_MODEL
        plan = nested if kind == "plan" else SPHERE_PLAN
        code, out, err = _pair_files(capsys, tmp_path, model, plan)
        assert (code, out) == (3, "")
        assert err.startswith("error: malformed JSON: ") and "Traceback" not in err

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="json reads integers of any length here")
    @pytest.mark.parametrize("kind", ["model", "plan"])
    def test_oversized_json_integer_is_domain_error(self, capsys, tmp_path, kind):
        # used to exit 2 with the interpreter's own digit-limit message
        big = "9" * max(5000, INT_DIGIT_LIMIT + 1)
        model, plan = json.dumps(SPHERE_MODEL), json.dumps(SPHERE_PLAN)
        if kind == "model":
            model = model.replace('"moment": [1]', f'"moment": [{big}]')
        else:
            plan = plan.replace('"coefficient": 1', f'"coefficient": {big}')
        code, out, err = _pair_files(capsys, tmp_path, model, plan)
        assert (code, out) == (3, "")
        assert err.startswith("error: malformed JSON: ") and "Traceback" not in err


RANK2_MODEL = {
    "rank": 2,
    "fixed_points": [{"id": "a", "moment": [0, 0], "weights": [[1, 0], [0, 1], [1, 1]]}],
}


class TestFlagRank:
    @pytest.mark.parametrize(
        "flag",
        [[[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
        ids=["flag-rank-below-model", "flag-rank-above-model"],
    )
    def test_flag_rank_mismatch_is_domain_error(self, capsys, tmp_path, flag):
        # Rank 1 used to crash with a StopIteration traceback, rank 3 to print 0.
        plan = [{"coefficient": 1, "fixed_point": "a", "flag": flag}]
        code, out, err = _pair_files(capsys, tmp_path, RANK2_MODEL, plan, cls="L")
        assert code == 3
        assert out == ""
        assert "flag has rank" in err and "Traceback" not in err

    def test_non_basis_flag_is_domain_error(self, capsys, tmp_path):
        # OrientedFlag raises NotUnimodular when load_plan makes it
        plan = [{"coefficient": 1, "fixed_point": "n", "flag": [[2]]}]
        code, out, err = _pair_files(capsys, tmp_path, SPHERE_MODEL, plan)
        assert code == 3
        assert out == ""
        assert "determinant 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", [5, [[1, 0], [0]]], ids=["non-sequence", "ragged"])
    def test_malformed_flag_is_domain_error(self, capsys, tmp_path, flag):
        # OrientedFlag raises PlanFormatError for both; load_plan keeps exit 3
        plan = [{"coefficient": 1, "fixed_point": "a", "flag": flag}]
        code, out, err = _pair_files(capsys, tmp_path, RANK2_MODEL, plan, cls="L")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestLooseModelFields:
    """Model ids must be strings and moments lists; each case exits 3."""

    def test_moment_string_is_not_split_into_digits(self, capsys, tmp_path):
        # "12" used to be read as the moment (1, 2)
        model = _with(RANK2_MODEL, ("fixed_points", 0, "moment"), "12")
        plan = [{"coefficient": 1, "fixed_point": "a", "flag": [[1, 0], [0, 1]]}]
        code, out, err = _pair_files(capsys, tmp_path, model, plan, cls="L")
        assert code == 3
        assert out == ""
        assert "moment must be a list" in err and "Traceback" not in err

    def test_zero_denominator_moment_is_domain_error(self, capsys, tmp_path):
        # used to end in a ZeroDivisionError traceback
        model = _with(SPHERE_MODEL, ("fixed_points", 0, "moment"), ["1/0"])
        code, out, err = _pair_files(capsys, tmp_path, model, SPHERE_PLAN)
        assert code == 3
        assert out == ""
        assert "zero denominator" in err and "Traceback" not in err

    @pytest.mark.parametrize("bad", ["\u0663", " 3", "1_000"], ids=["arabic", "space", "underscore"])
    def test_moment_text_outside_the_ascii_digits_is_domain_error(self, capsys, tmp_path, bad):
        # Fraction() read these as 3, 3 and 1000, and the model loaded
        model = _with(SPHERE_MODEL, ("fixed_points", 0, "moment"), [bad])
        code, out, err = _pair_files(capsys, tmp_path, model, SPHERE_PLAN)
        assert (code, out) == (3, "")
        assert err == f"error: fixed point 'n': rational value {bad!r} must be written in the digits 0-9\n"

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="Fraction() reads decimal literals of any length")
    def test_moment_with_a_denominator_too_long_is_domain_error(self, capsys, tmp_path):
        # used to say "must be written in the digits 0-9" and quote every digit
        long = "9" * max(5000, INT_DIGIT_LIMIT + 1)
        model = _with(SPHERE_MODEL, ("fixed_points", 0, "moment"), [f"1/{long}"])
        code, out, err = _pair_files(capsys, tmp_path, model, SPHERE_PLAN)
        assert (code, out) == (3, "")
        assert err == f"error: fixed point 'n': rational value '...' has {len(long)} digits, too many to read\n"

    def test_empty_flag_is_refused_at_load(self, capsys, tmp_path):
        # a rank-0 flag used to load and fail only when its term was evaluated
        plan = [{"coefficient": 1, "fixed_point": "n", "flag": []}]
        code, out, err = _pair_files(capsys, tmp_path, SPHERE_MODEL, plan)
        assert (code, out) == (3, "")
        assert "flag must have at least one stage" in err and "Traceback" not in err

    @pytest.mark.parametrize("bad", [5, None])
    def test_non_string_id_is_domain_error(self, capsys, tmp_path, bad):
        # used to become "5" or "None", which a plan "fixed_point": 5 then matched
        model = _with(SPHERE_MODEL, ("fixed_points", 0, "id"), bad)
        plan = _with(SPHERE_PLAN, (0, "fixed_point"), "n" if bad is None else bad)
        code, out, err = _pair_files(capsys, tmp_path, model, plan)
        assert code == 3
        assert out == ""
        assert "id must be a string" in err and "Traceback" not in err

    def test_non_string_plan_fixed_point_is_domain_error(self, capsys, tmp_path):
        model = _with(SPHERE_MODEL, ("fixed_points", 0, "id"), "5")
        plan = _with(SPHERE_PLAN, (0, "fixed_point"), 5)
        code, out, err = _pair_files(capsys, tmp_path, model, plan)
        assert code == 3
        assert out == ""
        assert "fixed_point must be a string" in err and "Traceback" not in err


class TestDeepInput:
    def test_deep_power_prints_zero(self, capsys):
        # L^500 used to end in a RecursionError traceback
        code, out, err = run(capsys, "pair", "--model", "spheres:3", "--class", "L^2000",
                             "--path", "0:+")
        assert (code, out, err) == (0, "0\n", "")

    def test_deep_linear_form_power_prints_zero(self, capsys):
        # L^700 on cp2:4 took about 6 s in repeated squaring of the moment form
        code, out, err = run(capsys, "pair", "--model", "cp2:4", "--class", "L^700",
                             "--cp2-variant", "swapped")
        assert (code, out, err) == (0, "0\n", "")

    @pytest.mark.parametrize("text", ["(L^100)^20", "(L^200)^20"])
    def test_nested_powers_print_what_the_flat_power_prints(self, capsys, text):
        # (L^100)^20 took 34 s by repeated squaring of the expanded L^100, and
        # (L^200)^20 did not finish in 120 s; a power of a factored power only
        # scales its exponent, and a key of another degree folds to 0 at once
        argv = ("pair", "--model", "cp2:4", "--cp2-variant", "swapped", "--class")
        flat = run(capsys, *argv, "L^2000")
        start = time.perf_counter()
        nested = run(capsys, *argv, text)
        assert time.perf_counter() - start < 10
        assert nested == flat == (0, "0\n", "")

    @pytest.mark.parametrize("model, text, source, value", [
        ("spheres:3", " + ".join(["L"] * 500), ("--path", "0:+"), "0"),
        ("spheres:3", "*".join(["L"] * 500), ("--path", "0:+"), "0"),
        ("spheres:3", " + ".join(["L*L"] * 500), ("--path", "0:+"), "3000"),
        ("spheres:3", "(" + " + ".join(["L"] * 500) + ")^2", ("--path", "0:+"), "1500000"),
        ("cp2:5", "weyl(" + " + ".join(["L^2"] * 500) + ")", ("--cp2-variant", "swapped"), "2500"),
    ], ids=["sum", "product", "sum of products", "power of a sum", "weyl of a sum"])
    def test_long_expression_pairs(self, capsys, model, text, source, value):
        # 500 terms or factors used to end in a RecursionError traceback
        code, out, err = run(capsys, "pair", "--model", model, "--class", text, *source)
        assert (code, out, err) == (0, value + "\n", "")

    def test_deep_nesting_is_syntax_error(self, capsys):
        # 400 nested parentheses used to end in a RecursionError traceback
        text = "(" * 400 + "L" + ")" * 400
        code, out, err = run(capsys, "pair", "--model", "spheres:3", "--class", text,
                             "--path", "0:+")
        assert code == 3
        assert out == ""
        assert "nesting" in err and "column 101" in err and "Traceback" not in err


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() converts literals of any length here")
class TestLongIntegerLiterals:
    LONG = "9" * (INT_DIGIT_LIMIT + 1)

    @pytest.mark.parametrize("text, column", [
        (f"{LONG}*L^2", 1),
        (f"1/{LONG}*L^2", 3),
        (f"line({LONG})", 6),
        (f"v{LONG}", 1),
    ], ids=["coefficient", "denominator", "line", "v"])
    def test_long_literal_is_syntax_error(self, capsys, text, column):
        # these used to reach int() and end in its ValueError, exit code 2
        code, out, err = run(capsys, "pair", "--model", "spheres:3", "--class", text,
                             "--path", "0:+")
        assert code == 3
        assert out == ""
        assert "too long" in err and f"column {column}" in err and "Traceback" not in err


def refuse_model_builds(monkeypatch):
    """Make every way of building a fixed point fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the size guard let a model build start")

    monkeypatch.setattr(model_module, "FixedPoint", refuse)
    monkeypatch.setattr(model_module, "group_walk", refuse)
    monkeypatch.setattr(model_module.itertools, "product", refuse)


class TestSizeGuard:
    # The orbit models hold C(n+k-1, k-1) points of n factors each: the
    # guard refuses them when that product exceeds MAX_FIXED_POINTS.
    @pytest.mark.parametrize("argv", [
        ("volume", "--model", "spheres:2000", "--group", "torus", "--path", "0:+"),
        ("pair", "--model", "cp2:1400", "--class", "L", "--cp2-variant", "swapped"),
    ])
    def test_oversized_family_is_domain_error(self, capsys, monkeypatch, argv):
        refuse_model_builds(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "fixed points" in err and str(model_module.MAX_FIXED_POINTS) in err

    @pytest.mark.parametrize("argv", [
        ("walls", "--model", "spheres:21", "--xi", "1"),
        ("pair", "--model", "spheres:21", "--class", "v1^20", "--path", "0:+"),
        ("volume", "--model", "cp2:13", "--group", "torus", "--plan", "unread.json"),
    ])
    def test_oversized_per_point_model_is_refused_before_a_point(self, capsys, monkeypatch, argv):
        # these need every point's id, so the 2^20-point limit still holds
        refuse_model_builds(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "fixed points" in err and str(model_module.MAX_FIXED_POINTS) in err


class TestOrbitModels:
    """pair and volume evaluate a built-in family on its orbit model; walls,
    plan, a --plan file and a v<i> class read or print point ids, and get
    them from the per-point expansion, the one caller of group_walk.  A
    recipe is checked on the orbit model before the expansion."""

    @staticmethod
    def refuse_walk(monkeypatch):
        def refuse(*args):
            raise AssertionError("group_walk was reached")

        monkeypatch.setattr(model_module, "group_walk", refuse)

    @pytest.mark.parametrize("argv, expected", [
        (("volume", "--model", "spheres:13", "--group", "torus", "--path", "0:+"), "20646903199/13305600 * (2pi)^12"),
        (("volume", "--model", "spheres:5", "--group", "weyl", "--path", "0:+"), "5/2 * (2pi)^2"),
        (("volume", "--model", "cp2:8", "--group", "weyl", "--cp2-variant", "swapped"), "11539/240 * (2pi)^8"),
        (("pair", "--model", "spheres:4", "--class", "(L - 1/2*line(1))^3", "--path", "1/2:-"), "235/8"),
        (("pair", "--model", "cp2:5", "--class", "weyl(L^2)", "--cp2-variant", "mirror"), "5"),
        (("pair", "--model", "spheres:21", "--class", "L^20", "--path", "0:+"), str(sphere_torus_pairing(21))),
    ])
    def test_pair_and_volume_do_not_expand(self, capsys, monkeypatch, argv, expected):
        self.refuse_walk(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, expected + "\n", "")

    @pytest.mark.parametrize("argv, message", [
        (("pair", "--model", "spheres:20", "--class", "v1", "--path", "0:+"), "0 is a wall value"),
        (("plan", "--model", "spheres:20", "--path", "0:+"), "0 is a wall value"),
        (("plan", "--model", "spheres:20", "--cp2-variant", "swapped"),
         "--cp2-variant applies only to cp2:N models"),
        (("pair", "--model", "cp2:12", "--class", "v1", "--cp2-variant", "swapped"),
         "v classes exist only on sphere-product models"),
        # expanded all 531,441 points before refusing the direction's length
        (("walls", "--model", "cp2:12", "--xi", "1"), "direction must have length 2"),
    ])
    def test_bad_requests_fail_before_the_expansion(self, capsys, monkeypatch, argv, message):
        # the plan, or the class, is made on the orbit model first
        self.refuse_walk(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("walls", "--model", "spheres:3", "--xi", "1"),
        ("plan", "--model", "spheres:3", "--path", "0:+"),
        ("plan", "--model", "cp2:4", "--cp2-variant", "swapped"),
        ("plan", "--model", "spheres:3", "--plan", "PLAN"),
        ("pair", "--model", "spheres:3", "--class", "L^2", "--plan", "PLAN"),
        ("volume", "--model", "spheres:3", "--group", "torus", "--plan", "PLAN"),
        ("pair", "--model", "spheres:5", "--class", "weyl(v1^2)", "--path", "0:+"),
    ])
    def test_point_ids_come_from_the_expansion(self, capsys, monkeypatch, tmp_path, argv):
        plan = tmp_path / "plan.json"
        plan.write_text('[{"coefficient": 1, "fixed_point": "f{1}", "flag": [[1]]}]')
        self.refuse_walk(monkeypatch)
        with pytest.raises(AssertionError, match="group_walk was reached"):
            run(capsys, *[str(plan) if a == "PLAN" else a for a in argv])

    @pytest.mark.parametrize("spec, xis", [
        *((f"spheres:{n}", ("1", "-2")) for n in range(3, 7)),
        ("cp2:4", ("1,0", "2,-1", "1,1")),
        ("cp2:5", ("1,0", "0,1")),
    ])
    def test_walls_list_every_point(self, capsys, spec, xis):
        name, n = spec.split(":")
        model = ref_build_sphere_product(int(n)) if name == "spheres" else ref_build_cp_product(3, int(n))
        for xi in xis:
            code, out, _ = run(capsys, "walls", "--model", spec, "--xi", xi)
            entries = ref_wall_entries(model, tuple(map(int, xi.split(","))))
            assert code == 0
            assert out == "".join(f"{value}: {' '.join(ids)}\n" for value, ids in entries)

    @pytest.mark.parametrize("spec, source", [
        *((f"spheres:{n}", ("--path", path)) for n in range(3, 7) for path in ("1/2:+", "-3/2:-", "5/3:+")),
        *((f"cp2:{n}", ("--cp2-variant", variant)) for n in (4, 5) for variant in ("general", "swapped", "mirror")),
    ])
    def test_plans_list_every_point(self, capsys, spec, source):
        name, n = spec.split(":")
        if name == "spheres":
            p0, direction = source[1][:-2], 1 if source[1].endswith("+") else -1
            expected = ref_rank1_plan(ref_build_sphere_product(int(n)), Fraction(p0), direction)
        else:
            expected = ref_cp2_plan(int(n), source[1])
        code, out, _ = run(capsys, "plan", "--model", spec, "=".join(source))
        assert code == 0
        terms = [{"coefficient": term.coefficient, "fixed_point": term.fixed_point_id,
                  "flag": [list(stage) for stage in term.flag.stages]} for term in expected.terms]
        assert out == json.dumps(terms, indent=1) + "\n"


def readme_examples():
    """Each `torusloc ... # -> output` line of the README's command-line
    block, as (argv, expected output lines); " / " separates lines."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    examples = []
    for line in block.splitlines():
        command, marker, output = line.partition("# ->")
        if marker:
            examples.append((shlex.split(command)[1:], output.strip().split(" / ")))
    return examples


@pytest.mark.parametrize("argv, expected", readme_examples())
def test_readme_command_line_examples(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == expected
