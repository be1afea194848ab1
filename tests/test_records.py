"""Behaviour every record type shares: each is a NamedTuple, so its fields are
read-only, its repr is Name(field=value, ...), and equal records are ==."""

from fractions import Fraction

import pytest

from pathmn import (
    CharacterTable,
    IndicatorTerm,
    PartialPermutation,
    add_ribbons,
    builtin,
    character_table,
    clear_caches,
    coefficient_polynomiality,
    parse_pp,
    stat_product,
)
from pathmn.statistics import _table_product

RECORDS = {
    "RibbonAddition": lambda: add_ribbons((2, 1), 2)[0],
    "PartialPermutation": lambda: parse_pp("1,2 -> 2,3", 4),
    "IndicatorTerm": lambda: IndicatorTerm(Fraction(1, 2), PartialPermutation(3, [1], [2])),
    "Statistic": lambda: builtin("maj", 4),
    "PolynomialityReport": lambda: coefficient_polynomiality(
        PartialPermutation(2, (1,), (2,)), (1,), range(4, 7)),
    "CharacterTable": lambda: character_table(5),
}
UNHASHABLE = {"CharacterTable"}  # it holds mappings


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_named_tuples(name):
    clear_caches()
    a = RECORDS[name]()
    clear_caches()
    b = RECORDS[name]()
    assert type(a).__name__ == name and isinstance(a, tuple)
    assert a == b and a is not b
    first = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(a, first))
    assert repr(a).startswith(f"{name}({first}={getattr(a, first)!r}, ")
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_an_equal_statistic_hits_the_product_memo():
    clear_caches()
    f, g = builtin("maj", 4), builtin("maj", 4)
    assert f is not g
    square = stat_product(f, f)
    hits = _table_product.cache_info().hits
    assert stat_product(g, g) == square
    assert _table_product.cache_info().hits == hits + 1


def test_table_entries_are_built_once(monkeypatch):
    clear_caches()
    table = character_table(5)
    rows, read_rows = [], CharacterTable._rows

    def counting(self):
        rows.append(self)
        return read_rows(self)

    monkeypatch.setattr(CharacterTable, "_rows", counting)
    assert table.entries is table.entries
    assert len(rows) == 1
    assert table.entries[(3, 2), (2, 2, 1)] == table.value((3, 2), (2, 2, 1)) == 1
    clear_caches()
    assert table == character_table(5)  # the cached entries take no part in ==
