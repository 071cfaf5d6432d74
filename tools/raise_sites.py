"""List the ``raise`` statements of ``src/caustics/`` that the tier-1 tests never run, and the
error classes that no ``raise`` names.

    python tools/raise_sites.py            # the whole tier-1 suite
    python tools/raise_sites.py -- ARGS    # pytest with ARGS instead of the tests directory
                                           # (CI passes its tier-1 flags this way)

The script parses every module of ``src/caustics/`` for its ``raise`` statements, then runs
pytest in this process under ``sys.settrace`` and ``threading.settrace`` and records each line
of the package that runs.  A ``raise`` counts as reached when any line it spans ran.  Code run
in a subprocess (a test that starts ``python -m caustics``) is not seen: such a raise needs an
in-process test too.  It also reads the class names of ``errors.__all__`` and lists each one but
the base ``CausticsError`` that no ``raise`` in the package names.  It prints one ``path:line``
per unreached raise and one ``errors.py: <class> is never raised`` per such class, then a
summary line, and exits 1 if a raise was never reached, a class is never raised or the tests
failed.  Needs pytest and nothing outside the standard library.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "caustics"


def raise_spans(source: str) -> list[tuple[int, int]]:
    """The first and last line of every ``raise`` statement in ``source``, in source order."""
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise))


def raised_names(source: str) -> set[str]:
    """Every name and attribute in the expressions of the ``raise`` statements of ``source``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for statement in ast.walk(ast.parse(source)) if isinstance(statement, ast.Raise)
            for node in ast.walk(statement) if isinstance(node, (ast.Name, ast.Attribute))}


def unraised_classes(errors_source: str, raised: set[str]) -> list[str]:
    """The names of ``__all__`` in ``errors_source``, but ``CausticsError``, not in ``raised``."""
    exported = next(ast.literal_eval(node.value) for node in ast.parse(errors_source).body
                    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__")
    return [name for name in exported if name != "CausticsError" and name not in raised]


def unreached(spans: list[tuple[int, int]], ran: set[int]) -> list[int]:
    """The first lines of the spans no line of which is in ``ran``."""
    return [first for first, last in spans if ran.isdisjoint(range(first, last + 1))]


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` in process; its exit code and the lines run, by file."""
    import pytest

    ran: dict[str, set[int]] = {}
    lines_of: dict[str, set[int] | None] = {}  # co_filename -> its set in `ran`, or None

    def local(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            path = Path(name).resolve()
            lines_of[name] = ran.setdefault(str(path), set()) if path.parent == PACKAGE else None
        if lines_of[name] is None:
            return None
        lines_of[name].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    pytest_args = argv[argv.index("--") + 1:] if "--" in argv else [str(ROOT / "tests"), "-q"]
    code, ran = run_traced(pytest_args)
    missed, total, raised = [], 0, set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        spans = raise_spans(source)
        total += len(spans)
        missed += [f"{path.relative_to(ROOT)}:{line}"
                   for line in unreached(spans, ran.get(str(path), set()))]
        raised |= raised_names(source)
    unraised = unraised_classes((PACKAGE / "errors.py").read_text(), raised)
    for site in missed:
        print(site)
    for name in unraised:
        print(f"errors.py: {name} is never raised")
    print(f"{len(missed)} of {total} raise statements never reached; {len(unraised)} error "
          f"classes never raised; pytest exit code {code}")
    return 1 if missed or unraised or code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
