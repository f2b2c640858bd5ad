"""The result records' contract: fields, construction, equality, hashing.

The five frozen records are named tuples with no attribute dict, so each
is equal to, and hashes like, the plain tuple of its fields.  A CodeSet's
basis is its pivot table, a dict, so it hashes as that tuple does: not at
all.  CheckResult is a named tuple too, but its details list leaves it
unhashable; run_all sets its seconds with _replace.
"""

import pytest

from skewdna import analysis as an
from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna import verify

FIELDS = {
    cd.SkewCyclicCode: ("n", "generators"),
    cd.CodeSet: ("code", "basis"),
    cd.MinimalDegreeReport: ("exists", "degree", "words", "forms", "all_factor"),
    dna.DnaClassification: ("n", "generator", "form", "palindromic", "theta_palindromic",
                            "predicted_reversible", "predicted_reverse_complement"),
    an.GrayImageReport: ("n", "size", "identity_holds", "image_closed", "lee_min",
                         "gray_hamming_min"),
}


def _hash(value):
    """hash(value), or TypeError where value does not hash."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


def _records():
    code = cd.code_from_generator(6, sp.parse_poly("v(x^4+x^2+1)"))
    cs = cd.materialize(code)
    return [code, cs, cd.minimal_degree_scan(cs), dna.classify(code, cs.basis),
            an.gray_image_report(cs)]


@pytest.mark.parametrize("index", range(len(FIELDS)), ids=[t.__name__ for t in FIELDS])
def test_frozen_records_keep_their_fields_equality_and_hash(index):
    record = _records()[index]
    kind = type(record)
    names = FIELDS[kind]
    assert kind._fields == names
    values = tuple(getattr(record, name) for name in names)
    assert tuple(record) == values
    positional, keyword = kind(*values), kind(**dict(zip(names, values)))
    assert positional == keyword == record == values
    assert _hash(positional) == _hash(keyword) == _hash(record) == _hash(values)
    assert (_hash(record) is TypeError) == (kind is cd.CodeSet)
    assert repr(record) == f"{kind.__name__}({', '.join(f'{k}={v!r}' for k, v in zip(names, values))})"
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        kind(*values[:-1])


def test_records_keep_their_methods_and_properties():
    code, cs, report, info = _records()[:4]
    assert code.generator_words() == tuple(map(cd.pack, code.generators))
    assert (cs.n, cs.size, len(list(cs.walk()))) == (6, 16, 16)
    assert report.exists and report.all_factor
    assert info.predicted_reversible in ("yes", "no", "unknown")


def test_check_result_is_a_named_tuple_with_a_seconds_default():
    names = ("name", "passed", "summary", "details", "seconds")
    assert verify.CheckResult._fields == names
    assert verify.CheckResult("alpha", True, "fine", []).seconds == 0.0
    values = ("beta", False, "broke", ["case 1"], 0.5)
    c = verify.CheckResult(*values)
    assert c == verify.CheckResult(**dict(zip(names, values))) == values
    assert repr(c) == "CheckResult(name='beta', passed=False, summary='broke', details=['case 1'], seconds=0.5)"
    timed = c._replace(seconds=1.25)
    assert timed == ("beta", False, "broke", ["case 1"], 1.25) and c.seconds == 0.5
    assert timed.details is c.details
    assert not hasattr(c, "__dict__")
    with pytest.raises(AttributeError):
        c.seconds = 1.25
    with pytest.raises(AttributeError):
        c.extra = 1
    with pytest.raises(TypeError):
        hash(c)  # details is a list
    with pytest.raises(TypeError):
        verify.CheckResult("alpha", True, "fine")  # details has no default


def test_run_all_sets_every_checks_seconds():
    results = verify.run_all()
    assert len(results) == 12
    assert all(r.seconds > 0 for r in results), [(r.name, r.seconds) for r in results]
