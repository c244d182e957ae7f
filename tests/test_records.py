"""The result records: their reprs, immutability and construction checks."""

import pytest

from peadyn import (
    CycleRecord,
    OrbitResult,
    brute_force_classify,
    enumerate_cycles,
    length_bound,
    orbit,
    parse_word,
)

BASE3_CYCLE = tuple(parse_word(t, 3) for t in ("10210110", "12111100", "1212120"))


def test_reprs():
    assert repr(orbit((1, 1, 1), 2)) == (
        "OrbitResult(start=(1, 1, 1), transient=0, period=1, cycle=((1, 1, 1),), steps_taken=1)"
    )
    assert repr(length_bound(2)) == "BoundInfo(base=2, length_bound=8, words_up_to_bound=510)"
    assert repr(brute_force_classify(2, 4)) == (
        "ClassificationReport(base=2, fixed_points=((1, 1, 1),), cycles=())"
    )
    assert repr(next(iter(enumerate_cycles(3)))) == (
        "CycleRecord(base=3, period=3, words=((1, 0, 2, 1, 0, 1, 1, 0), (1, 2, 1, 1, 1, 1, 0, 0), "
        "(1, 2, 1, 2, 1, 2, 0)))"
    )


def test_fields_cannot_be_assigned():
    result = orbit((1, 0), 2)
    with pytest.raises(AttributeError):
        result.period = 2
    record = CycleRecord(3, 3, BASE3_CYCLE)
    with pytest.raises(AttributeError):
        record.words = ()
    assert result == orbit((1, 0), 2)
    assert record == CycleRecord(3, 3, BASE3_CYCLE)


def test_keyword_construction_is_checked_like_positional():
    a, b, c = BASE3_CYCLE
    for args in ((3, 2, (a, b, c)), (3, 2, (a, a)), (3, 3, (b, c, a)), (1, 1, (a,))):
        with pytest.raises(ValueError) as positional:
            CycleRecord(*args)
        with pytest.raises(ValueError) as keyword:
            CycleRecord(**dict(zip(("base", "period", "words"), args)))
        assert str(keyword.value) == str(positional.value)
    assert CycleRecord(base=3, period=3, words=BASE3_CYCLE) == CycleRecord(3, 3, BASE3_CYCLE)


def test_replace_is_checked():
    record = CycleRecord(3, 3, BASE3_CYCLE)
    with pytest.raises(ValueError, match="period must match"):
        record._replace(period=2)
    assert record._replace(base=4) == CycleRecord(4, 3, BASE3_CYCLE)


def test_records_are_tuples_of_their_fields():
    result = orbit((1, 0), 2)
    start, transient, period, cycle, steps_taken = result
    assert result == (start, transient, period, cycle, steps_taken)
    assert isinstance(result, OrbitResult)
    assert result[1:3] == (result.transient, result.period)
    assert hash(CycleRecord(3, 3, BASE3_CYCLE)) == hash((3, 3, BASE3_CYCLE))
