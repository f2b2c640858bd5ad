"""The result records' contract: fields, construction, equality, hashing.

The five frozen records are named tuples with no attribute dict, so each
is equal to, and hashes like, the plain tuple of its fields.  CheckResult
is the one mutable record: verify._timed sets its seconds after the check.
"""

import pytest

from skewdna import analysis as an
from skewdna import codes as cd
from skewdna import dna
from skewdna import skewpoly as sp
from skewdna import verify

FIELDS = {
    cd.SkewCyclicCode: ("n", "generators", "forms"),
    cd.CodeSet: ("code", "basis"),
    cd.MinimalDegreeReport: ("exists", "degree", "words", "forms", "all_factor"),
    dna.DnaClassification: ("n", "generator", "form", "palindromic", "theta_palindromic",
                            "predicted_reversible", "predicted_reverse_complement"),
    an.GrayImageReport: ("n", "size", "identity_holds", "image_closed", "lee_min",
                         "gray_hamming_min"),
}


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
    assert hash(positional) == hash(keyword) == hash(record)
    assert repr(record) == f"{kind.__name__}({', '.join(f'{k}={v!r}' for k, v in zip(names, values))})"
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        kind(*values[:-1])


def test_records_keep_their_methods_and_properties():
    code, cs, report, info, gray = _records()
    assert code.generator_words() == tuple(map(cd.pack, code.generators))
    assert (cs.n, cs.size, len(list(cs.walk()))) == (6, 16, 16)
    assert report.exists and report.all_factor
    assert info.predicted_reversible in ("yes", "no", "unknown")
    assert gray.distance_preserved == (gray.lee_min == gray.gray_hamming_min)
    changed = gray._replace(lee_min=gray.lee_min + 1)
    assert changed != gray and not changed.distance_preserved


def test_check_result_defaults_and_mutable_seconds():
    names = ("name", "passed", "summary", "details", "seconds")
    assert verify.CheckResult.__slots__ == names
    a = verify.CheckResult("alpha", True, "fine")
    b = verify.CheckResult("alpha", True, "fine")
    assert (a.details, a.seconds) == ([], 0.0)
    assert a.details is not b.details  # each instance gets its own list
    a.details.append("x")
    assert b.details == []
    given = ["case 1"]
    assert verify.CheckResult("beta", False, "broke", given).details is given
    values = ("beta", False, "broke", ["case 1"], 0.5)
    c = verify.CheckResult(*values)
    assert c == verify.CheckResult(**dict(zip(names, values)))
    assert tuple(getattr(c, name) for name in names) == values
    assert repr(c) == "CheckResult(name='beta', passed=False, summary='broke', details=['case 1'], seconds=0.5)"
    c.seconds = 1.25
    assert c.seconds == 1.25
    assert c != verify.CheckResult(*values) and c != values
    with pytest.raises(TypeError):
        hash(c)  # mutable, so unhashable
    with pytest.raises(AttributeError):
        c.extra = 1


def test_timed_checks_set_their_seconds():
    result = verify.check_element_dna_table()
    assert result.passed and result.seconds > 0
