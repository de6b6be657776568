"""The ``--reach`` report of tests/conftest.py: which statements a run missed."""

import textwrap

import conftest

SOURCE = textwrap.dedent(
    '''\
    """Module docstring."""
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:
        import json


    def f(a):
        """Function docstring."""
        if a:
            return (
                1
            )
        try:
            b = 2
        except ValueError:
            b = 3
        return b


    if __name__ == "__main__":
        f(0)
    '''
)


def test_reach_lists_each_statement_no_traced_line_reached(tmp_path, monkeypatch):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    # the import and the def ran; inside f, the if test, the continuation
    # line of the return, the try body and the last return ran
    ran = {2, 4, 8, 10, 12, 15, 18, 21}
    monkeypatch.setattr(conftest, "_seen", {(str(path), line) for line in ran})
    assert conftest._unreached(path) == [(17, "b = 3")]
    monkeypatch.setattr(conftest, "_seen", {(str(path), line) for line in {2, 4, 8}})
    assert [line for line, _ in conftest._unreached(path)] == [10, 11, 14, 15, 17, 18, 21]
