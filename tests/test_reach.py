"""tools/reach.py on a fixture module whose unrun lines are known: a
function never called, a branch never taken and a method never called
stay unrun; def lines, decorators, class bodies and comprehensions run."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "reach.py")
_spec = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

# executable by exec_lines' rule: 1, 2, 5, 6, 8, 9, 10, 13, 14, 17, 18, 20,
# 21; calling used(2) once leaves 10 (the untaken return), 14 (unused's
# body) and 21 (C.m's body)
_FIXTURE = '''"""A module docstring."""
import functools


@functools.lru_cache(maxsize=None)
def used(x):
    """A function docstring."""
    if x:
        return [y + 1 for y in range(x)]
    return None


def unused():
    return 1


class C:
    a = 1

    def m(self):
        return 2
'''


def _run_fixture(folder, directory):
    """Import fixture.py, written to folder, and call used(2), tracing the
    files under directory."""
    folder.mkdir(exist_ok=True)
    path = folder / "fixture.py"
    path.write_text(_FIXTURE)

    def run():
        spec = importlib.util.spec_from_file_location("fixture", str(path))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.used(2) == [1, 2]

    return path, reach.reached_lines(run, str(directory))


def test_unrun_lines_of_a_fixture(tmp_path):
    path, reached = _run_fixture(tmp_path, tmp_path)
    assert set(reached) == {str(path)}
    (tmp_path / "other.py").write_text("x = 1\n")
    assert reach.unrun(reached, str(tmp_path)) == {
        "fixture.py": (13, [10, 14, 21]),
        "other.py": (1, [1]),
    }


def test_frames_outside_the_directory_are_not_recorded(tmp_path):
    # a sibling folder whose name extends the directory's is outside it
    _, reached = _run_fixture(tmp_path / "pkg", tmp_path / "pk")
    assert reached == {}


def test_report(capsys):
    reach.report({"a.py": (4, []), "b.py": (13, [3, 4, 5, 9])})
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["0 of 4 a.py", "4 of 13 b.py: 3-5, 9"]
    assert out[2].startswith("4 of 17 unrun (")


def test_usage():
    assert reach.main(["--bogus"]) == 2
