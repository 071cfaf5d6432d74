"""``tools/raise_sites.py`` without its traced pytest run: the scan for ``raise`` statements
and the test of which of them ran, on a small synthetic module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("raise_sites", ROOT / "tools" / "raise_sites.py")
raise_sites = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(raise_sites)

SOURCE = '''\
def f(x):
    if x:
        raise ValueError(
            "two lines")
    try:
        return 1 / x
    except ZeroDivisionError:
        raise


class C:
    def g(self):
        raise TypeError("one line")  # raise in a comment is no statement
'''


def test_spans_cover_every_line_of_each_raise():
    assert raise_sites.raise_spans(SOURCE) == [(3, 4), (8, 8), (13, 13)]
    assert raise_sites.raise_spans("x = 'raise'\n") == []


def test_a_raise_is_reached_when_any_of_its_lines_ran():
    spans = raise_sites.raise_spans(SOURCE)
    assert raise_sites.unreached(spans, set()) == [3, 8, 13]
    assert raise_sites.unreached(spans, {4, 13}) == [8]
    assert raise_sites.unreached(spans, {1, 2, 3, 5, 6, 7, 8, 12, 13}) == []
