"""The benchmark's span targets must all resolve in the package.

perfbench/spans.py names the functions it wraps by module and attribute
path; the untraced benchmark worker resolves every one of them, so a
rename in src/ would crash it.  This test fails first instead.
"""

from pathlib import Path

import charstacks.cli  # noqa: F401  (every module the targets live in)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    spans.assert_untouched()
