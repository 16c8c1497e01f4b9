"""List the functions and methods of the package that no artifact-matrix run enters.

Run from the root of a checkout, with no arguments:

    python3 tests/reach_matrix.py > reach.txt

It runs every run of ``artifact_matrix.runs()`` (every scenario x command x
format, the benchmark workloads and the edge-case runs) through
``pilotwave.cli.main`` in this process, under ``sys.setprofile``, and
records the code object of every Python call.  It then prints, one name a
line in file order, each module-level function and each method of a
module-level class in ``src/pilotwave`` that no run entered, as
``module.Class.method`` or ``module.function``.  A decorated function counts
as entered at its first decorator's line, where its code object starts.

Names that run only at import time or only on an error path belong in
the listing; any other name is code that no command reaches.  Compare two
checkouts with ``diff``.  Pytest does not collect this file; the profiler
makes it several times slower than ``artifact_matrix.py``.
"""
import ast
import os
import sys
import tempfile

from artifact_matrix import ROOT, fingerprint, runs

PACKAGE = os.path.join(ROOT, "src", "pilotwave")


def definitions():
    """[(path, first line, name)] of every module-level function and method, in file order."""
    out = []
    for file_name in sorted(os.listdir(PACKAGE)):
        if not file_name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, file_name)
        with open(path) as handle:
            tree = ast.parse(handle.read())
        module = file_name[:-3]
        for node in tree.body:
            members = ([(f"{node.name}.", child) for child in node.body]
                       if isinstance(node, ast.ClassDef) else [("", node)])
            for prefix, fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    out.append((path, line, f"{module}.{prefix}{fn.name}"))
    return out


def entered():
    """{(path, first line)} of every code object that the matrix runs call."""
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            for i, (_, command, doc, fmt) in enumerate(runs()):
                fingerprint(tmp, i, command, doc, fmt)
        finally:
            sys.setprofile(None)
    return {(os.path.realpath(path), line) for path, line in seen}


def main():
    seen = entered()
    for path, line, name in definitions():
        if (os.path.realpath(path), line) not in seen:
            print(name, flush=True)


if __name__ == "__main__":
    main()
