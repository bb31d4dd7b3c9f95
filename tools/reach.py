"""Executable lines of the package that a fixed set of CLI runs never reaches.

    python3 tools/reach.py [--demos]

Runs `mahlerlab.cli.main` in this process under `sys.settrace`, on the
argv lists in RUNS: `verify --all` at 2^17 samples, `verify --all
--filter high-precision --precision 96`, and one `compute` of every
quantity (the `mahler` one reads a descriptor file written to the
temporary directory the runs use as their working directory, so no
`mahlerlab.cfg` is read).  With --demos each script in `demos/` runs
after them, as `__main__`.  The runs' own output is discarded.

A line counts as reached when a traced frame of a package module executes
it, or, for a function's first line, when the function is entered.  The
executable lines are those of `tools/exec_lines.py`.  Output: one
`<unrun> of <executable> <module>: <line ranges>` line per module in name
order, then `<unrun> of <executable> unrun (<implementation> <version>)`.
The exit status is 1 when a CLI run exits non-zero, else 0.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import platform
import runpy
import sys
import tempfile

_TOOLS = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_TOOLS)
_SRC = os.path.join(_ROOT, "src")
_PACKAGE = os.path.join(_SRC, "mahlerlab")
_DEMOS = os.path.join(_ROOT, "demos")

_spec = importlib.util.spec_from_file_location("exec_lines", os.path.join(_TOOLS, "exec_lines.py"))
exec_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exec_lines)

# m(x + 1/x + y + 1/y - 4) = 4G/pi, as coefficient and exponents per line
_DESCRIPTOR = "1 1 0\n1 -1 0\n1 0 1\n1 0 -1\n-4 0 0\n"

RUNS = (
    ["verify", "--all", "--samples", str(1 << 17)],
    ["verify", "--all", "--filter", "high-precision", "--precision", "96"],
    ["compute", "L", "f", "4"],
    ["compute", "zeta", "3"],
    ["compute", "catalan"],
    ["compute", "K", "0.5"],
    ["compute", "mahler", "p4.txt", "--samples", str(1 << 17)],
    ["compute", "mRk", "16"],
    ["compute", "ap", "97"],
)


def reached_lines(run, directory: str) -> dict:
    """{file path: line numbers} that run() executes in the files under
    directory; frames of other files are not traced line by line."""
    prefix = os.path.join(os.path.abspath(directory), "")
    reached: dict = {}
    tracers: dict = {}

    def line_tracer(lines: set):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        if path not in tracers:
            tracers[path] = line_tracer(reached.setdefault(path, set()))
        reached[path].add(frame.f_code.co_firstlineno)
        return tracers[path]

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return reached


def unrun(reached: dict, directory: str) -> dict:
    """{module file name: (executable lines, sorted unrun lines)} for every
    *.py directly in directory."""
    out = {}
    for name in sorted(n for n in os.listdir(directory) if n.endswith(".py")):
        path = os.path.join(os.path.abspath(directory), name)
        with open(path, encoding="utf-8") as fh:
            executable = exec_lines.code_lines(compile(fh.read(), path, "exec"))
        out[name] = (len(executable), sorted(executable - reached.get(path, set())))
    return out


def ranges(lines) -> str:
    """[3, 4, 5, 9] -> '3-5, 9'."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(per_module: dict, out=None) -> None:
    out = sys.stdout if out is None else out
    for name, (executable, missed) in per_module.items():
        where = f": {ranges(missed)}" if missed else ""
        print(f"{len(missed)} of {executable} {name}{where}", file=out)
    total = sum(e for e, _ in per_module.values())
    missed = sum(len(m) for _, m in per_module.values())
    print(f"{missed} of {total} unrun "
          f"({platform.python_implementation()} {platform.python_version()})", file=out)


def _run_all(demos: bool, failures: list) -> None:
    from mahlerlab import cli

    for argv in RUNS:
        code = cli.main(argv)
        if code != 0:
            failures.append((argv, code))
    if demos:
        for name in sorted(n for n in os.listdir(_DEMOS) if n.endswith(".py")):
            path = os.path.join(_DEMOS, name)
            with contextlib.suppress(SystemExit):
                runpy.run_path(path, run_name="__main__")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    demos = argv == ["--demos"]
    if argv and not demos:
        print("usage: python3 tools/reach.py [--demos]", file=sys.stderr)
        return 2
    sys.path.insert(0, _SRC)
    failures: list = []
    cwd = os.getcwd()
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "p4.txt"), "w") as fh:
            fh.write(_DESCRIPTOR)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                reached = reached_lines(lambda: _run_all(demos, failures), _PACKAGE)
        finally:
            os.chdir(cwd)
    for run, code in failures:
        print(f"exit {code}: mahlerlab {' '.join(run)}", file=sys.stderr)
    report(unrun(reached, _PACKAGE))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
