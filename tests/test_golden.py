"""Every command line of the golden corpus (tests/golden) still gives its
recorded result.

Exit codes, stderr and the set of files written must match exactly;
strings in the outputs too.  Numbers match to 1e-12 absolute, and EIT
responses (every number of an `eit` case) to 1e-9 of the case's peak
response, the bound the fast path keeps against the dense reference.
Tables are written with 9 significant digits, so a table entry may also
differ by the rounding of the two printed values.  Manifests are compared
with the run directory written as "$CASE".
"""

import json
import math

import pytest

from golden.generate import CASE_DIR, run_case

CASES = sorted(CASE_DIR.glob("*.json"))
TABLE_DIGITS = 9


def test_corpus_found():
    assert len(CASES) >= 30


def _parse(name, text):
    """A table as rows of cells (floats where they parse), JSON as its
    document, and anything else (an empty stdout) as its text."""
    if name.endswith(".csv"):
        def cell(token):
            try:
                return float(token)
            except ValueError:
                return token
        return [[cell(t) for t in line.split(",")] for line in text.split("\n")]
    return json.loads(text) if text.strip() else text


def _responses(doc):
    """The EIT response numbers of a parsed eit output (none for others)."""
    if isinstance(doc, dict) and "response" in doc:
        return [x for row in doc["response"] for x in row]
    if isinstance(doc, list) and doc and doc[0][-1:] == ["response"]:
        return [row[-1] for row in doc[1:] if len(row) > 1]
    return []


def _mismatch(want, got, tol, digits, where="") -> str | None:
    """Where got first departs from want, or None."""
    def is_number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if is_number(want) and is_number(got):
        def rounding(x):
            if not digits or x == 0:
                return 0.0
            return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - digits + 1)
        if abs(want - got) <= tol + rounding(want) + rounding(got):
            return None
        return "%s: %r != %r (tol %.3g)" % (where, got, want, tol)
    if type(want) is not type(got):
        return "%s: %r != %r" % (where, got, want)
    if isinstance(want, dict):
        if sorted(want) != sorted(got):
            return "%s: keys %s != %s" % (where, sorted(got), sorted(want))
        items = [(want[k], got[k], "%s/%s" % (where, k)) for k in want]
    elif isinstance(want, list):
        if len(want) != len(got):
            return "%s: length %d != %d" % (where, len(got), len(want))
        items = [(w, g, "%s[%d]" % (where, i)) for i, (w, g) in enumerate(zip(want, got))]
    else:
        return None if want == got else "%s: %r != %r" % (where, got, want)
    for w, g, at in items:
        found = _mismatch(w, g, tol, digits, at)
        if found:
            return found
    return None


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_case(path, tmp_path):
    case = json.loads(path.read_text())
    inputs = {name: "\n".join(lines) for name, lines in case["inputs"].items()}
    got = run_case(case["argv"], inputs, tmp_path)
    assert got["exit"] == case["exit"]
    assert got["stderr"] == "\n".join(case["stderr"])
    want = {name: "\n".join(lines) for name, lines in case["outputs"].items()}
    want["stdout"] = "\n".join(case["stdout"])
    got["outputs"]["stdout"] = got["stdout"]
    assert sorted(got["outputs"]) == sorted(want)
    parsed = {name: _parse(name, text) for name, text in want.items()}
    tol = 1e-12
    if case["argv"][0] == "eit":
        tol = 1e-9 * max((abs(x) for doc in parsed.values() for x in _responses(doc)),
                         default=0.0)
    for name, doc in parsed.items():
        digits = TABLE_DIGITS if name.endswith(".csv") else None
        found = _mismatch(doc, _parse(name, got["outputs"][name]), tol, digits, name)
        assert found is None, found
