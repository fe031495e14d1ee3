"""The gorquad command line: check verdicts, construct output, the module entry."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gorquad
from gorquad.cli import main
from gorquad.gin import gin
from gorquad.invariants import minimal_generators
from gorquad.recipes import parse_ideal, run_recipe

from conftest import GF7

SQUARES_4 = "field {p}\nvars 4\nx1^2\nx2^2\nx3^2\nx4^2\n"


@pytest.fixture
def squares_file(tmp_path):
    path = tmp_path / "squares.ideal"
    path.write_text(SQUARES_4.format(p=32003))
    return path


@pytest.mark.parametrize("what, verdict", [
    ("inj", "injectivity: holds (rank 4/4, 5 samples)"),
    ("wlp", "WLP: holds"),
    ("gin", "gin: certified borel-fixed (attempts agreed: 3)"),
    ("link-duality", "link duality: holds"),
])
def test_check_verdicts_on_the_squares(squares_file, capsys, what, verdict):
    assert main(["check", "--what", what, str(squares_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == verdict
    if what == "gin":
        I = parse_ideal(squares_file.read_text())
        gens = minimal_generators(gin(I, seed=0).monomial_ideal)
        assert lines[1:] == [str(g) for g in gens]
    else:
        assert len(lines) == 1


def test_check_inj_precondition_exits_1(tmp_path, capsys):
    path = tmp_path / "squares2.ideal"
    path.write_text(SQUARES_4.format(p=2))
    assert main(["check", "--what", "inj", str(path)]) == 1
    assert capsys.readouterr().out == "precondition: odd or zero characteristic\n"


@pytest.mark.parametrize("text, line", [
    ("field 32003\nvars 3\nx1^3\nx2^3\nx3^3\n",
     "precondition: presented by quadrics"),
    ("field 32003\nvars 2\nx1^2\nx2^2\n", "precondition: socle degree ≥ 3"),
], ids=["cubes", "socle-degree-2"])
def test_check_inj_names_each_failed_precondition(tmp_path, capsys, text, line):
    # cmd_check finds the line by a phrase of gin's report, so a change of
    # wording there would fall back to the generic line
    path = tmp_path / "ideal.ideal"
    path.write_text(text)
    assert main(["check", "--what", "inj", str(path)]) == 1
    assert capsys.readouterr().out == line + "\n"


def test_check_wlp_reads_standard_input_and_exits_1_on_failure(monkeypatch,
                                                               capsys):
    """(x1^3, x2^3, x3^3, x1*x2*x3), the Brenner-Kaid example, fails the
    WLP in characteristic 32003."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        "field 32003\nvars 3\nx1^3\nx2^3\nx3^3\nx1*x2*x3\n"))
    assert main(["check", "--what", "wlp", "-"]) == 1
    assert capsys.readouterr().out == "WLP: fails at degree(s) 2\n"


def test_construct_writes_to_standard_output_by_default(tmp_path, capsys):
    recipe = tmp_path / "ci.recipe"
    recipe.write_text("ci r=3\n")
    assert main(["construct", "--field", "7", str(recipe)]) == 0
    written = capsys.readouterr().out
    assert written.startswith("# gorquad construct seed=0 field=7\n")
    want, _ = run_recipe("ci r=3\n", field=GF7)
    got = parse_ideal(written)
    assert got.ring == want.ring and got.gens == want.gens


def test_construct_writes_what_run_recipe_builds(tmp_path):
    text = 'ci r=3 style="random"\n'
    recipe, out = tmp_path / "ci.recipe", tmp_path / "ci.ideal"
    recipe.write_text(text)
    assert main(["construct", "--field", "7", "--seed", "4", "--out", str(out),
                 str(recipe)]) == 0
    written = out.read_text()
    assert written.startswith("# gorquad construct seed=4 field=7\n")
    want, _ = run_recipe(text, field=GF7, seed=4)
    got = parse_ideal(written)
    assert got.ring == want.ring and got.gens == want.gens


def test_module_entry_reads_standard_input():
    src = str(Path(gorquad.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run(
        [sys.executable, "-m", "gorquad.cli", "hilbert", "-"],
        input=SQUARES_4.format(p=7), capture_output=True, text=True, env=env,
        timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "(1,4,6,4,1) gorenstein presented_by_quadrics h2=6",
        "socle degree: 4",
        "minimal generators: 2:4",
        "alpha: 0",
    ]
