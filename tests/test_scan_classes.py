"""The `.af` scan's hand-written character classes, checked against every code point.

`framework._EOL` must be the line boundaries of `str.splitlines` and
`framework._BLANK` the other characters `\\s` matches, both as the
running Python's Unicode database has them. The module needs no pytest,
so it can also run as a plain script on a Python without it:

    PYTHONPATH=src python tests/test_scan_classes.py
"""

import re
import sys
import unicodedata

from prefarg import framework

EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))


def matched(cls: str) -> set[str]:
    return set(re.findall(cls, EVERY_CODE_POINT))


def test_eol_class_is_the_splitlines_boundaries():
    boundaries = {c for c in EVERY_CODE_POINT if len(("a" + c + "b").splitlines()) == 2}
    assert matched(f"[{framework._EOL}]") == boundaries


def test_blank_class_is_whitespace_less_line_boundaries():
    spaces = {c for c in EVERY_CODE_POINT if c.isspace()}
    assert matched(r"\s") == spaces
    assert matched(framework._BLANK) == {
        c for c in spaces if len(("a" + c + "b").splitlines()) == 1
    }


if __name__ == "__main__":
    test_eol_class_is_the_splitlines_boundaries()
    test_blank_class_is_whitespace_less_line_boundaries()
    print(f"scan classes agree with Python {sys.version.split()[0]} "
          f"(Unicode {unicodedata.unidata_version})")
