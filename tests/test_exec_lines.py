"""tools/exec_lines.py on fixture modules whose executable lines are
known: docstrings, comments and blank lines do not count, nested code
objects do, and each module and the total are printed."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "exec_lines.py")
_spec = importlib.util.spec_from_file_location("exec_lines", _PATH)
exec_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exec_lines)

# executable: 1 (the module docstring, stored as __doc__), 5 (import),
# 8 (def), 14 (the return, its comprehension and the lambda inside it),
# 17 (class) and 18 (its body); a function's docstring is a constant, not
# code, and comments and blank lines compile to nothing
_FIXTURE = '''"""A module
docstring over three
lines."""

import os


def f(xs):
    """A function docstring.

    Two paragraphs long.
    """
    # a comment
    return [(lambda y: y + 1)(x) for x in xs]


class C:
    a = os.sep
'''


def test_fixture_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(_FIXTURE)
    code = compile(_FIXTURE, str(path), "exec")
    assert exec_lines.code_lines(code) == {1, 5, 8, 14, 17, 18}
    assert exec_lines.module_lines(str(path)) == 6


def test_per_module_and_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(_FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert exec_lines.counts(str(tmp_path)) == {"a.py": 2, "b.py": 6}
    assert exec_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["2 a.py", "6 b.py"]
    assert out[2].startswith("8 total (")


def test_default_is_the_package():
    names = exec_lines.counts(exec_lines._DEFAULT_SRC)
    assert "special.py" in names and "__init__.py" in names
    assert all(n > 0 for n in names.values())
