"""Executable lines of the package: per module and in total.

    python3 tools/exec_lines.py [SRC_DIR]

A module's executable lines are the distinct line numbers that
`co_lines()` reports over every code object compiled from it: the module
body and, recursively, each function, class body, lambda and
comprehension in its `co_consts`.  Docstrings and comments count only
where they compile to code (a docstring is one line, its first).  Line 0,
which CPython 3.11 and later give a module's first instruction, is not a
source line and is left out.  The bytecode, and so the count, differs
between interpreter versions (3.12 counts some lines 3.11 does not), so
the total line names the interpreter.  SRC_DIR defaults to the package's
own `src/mahlerlab`; every `*.py` directly in it is counted.  Output: one
`<count> <module>` line per module in name order, then
`<count> total (<implementation> <version>)`.
"""

from __future__ import annotations

import os
import platform
import sys
import types

_DEFAULT_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "mahlerlab")


def code_lines(code: types.CodeType) -> set:
    """Line numbers of a code object and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def module_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    return len(code_lines(compile(source, path, "exec")))


def counts(src_dir: str) -> dict:
    """{module file name: executable lines} for every *.py in src_dir."""
    names = sorted(n for n in os.listdir(src_dir) if n.endswith(".py"))
    return {n: module_lines(os.path.join(src_dir, n)) for n in names}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    per_module = counts(argv[0] if argv else _DEFAULT_SRC)
    for name, n in per_module.items():
        print(f"{n} {name}")
    print(f"{sum(per_module.values())} total "
          f"({platform.python_implementation()} {platform.python_version()})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
