"""The ``--reach`` option: which statements of ``src/saddlelift`` no test runs.

``pytest --reach`` traces every line the tests execute in the package with
``sys.settrace`` (no coverage package needed) and, after the run, prints
each statement that never ran as ``path:line: source``.  Docstrings and
the bodies of ``if TYPE_CHECKING:`` and ``if __name__ == "__main__":`` are
left out, and code run in a subprocess is not traced.  It is off by
default, because a traced run takes about two and a half times as long.
"""

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "saddlelift"
_PREFIX = str(PACKAGE)

_seen: set[tuple[str, int]] = set()


def pytest_addoption(parser):
    parser.addoption(
        "--reach",
        action="store_true",
        default=False,
        help="list the statements of src/saddlelift that no test executes",
    )


def _lines(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(_PREFIX) else None


def pytest_configure(config):
    if config.getoption("reach"):
        threading.settrace(_calls)
        sys.settrace(_calls)


def _is_docstring(node, parent) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
    )


def _never_run(node) -> bool:
    """An ``if TYPE_CHECKING:`` or ``if __name__ == "__main__":`` block,
    whose body no in-process run executes."""
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "TYPE_CHECKING",
        "__name__ == '__main__'",
    )


def _unreached(path: Path):
    """(line, source) of each statement of ``path`` that no traced line
    reached: a simple statement on none of its lines, a compound one on
    none of its header lines and not in its first body statement."""
    name, text = str(path), path.read_text()
    source = text.splitlines()
    seen = {line for file, line in _seen if file == name}

    def reached(node) -> bool:
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = body[0].lineno - 1 if body else node.end_lineno
        return bool(seen.intersection(range(first, last + 1))) or bool(body and reached(body[0]))

    missed, todo = [], [ast.parse(text)]
    while todo:
        parent = todo.pop()
        if _never_run(parent):
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            nodes = getattr(parent, field, ())
            for node in nodes if isinstance(nodes, list) else ():
                todo.append(node)
                if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
                    continue
                if not (_is_docstring(node, parent) or reached(node)):
                    missed.append((node.lineno, source[node.lineno - 1].strip()))
    return sorted(missed)


def pytest_terminal_summary(terminalreporter, config):
    if not config.getoption("reach"):
        return
    sys.settrace(None)
    threading.settrace(None)
    report = [
        f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {text}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, text in _unreached(path)
    ]
    terminalreporter.section(f"statements no test executed: {len(report)}")
    for row in report:
        terminalreporter.write_line(row)
