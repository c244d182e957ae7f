"""Supplied fixed point reference table for bases 2 through 6.

This is the package's only copy of the reference data. Every entry is a
fixed point: it satisfies step(w) == w under its base. The verify-table
command compares each list as text with the spelled words of a fresh
enumeration, so an entry that does not parse, or is not fixed, is extra.
The lists are kept as supplied, so they need not be complete: base 6 lacks
the fixed point 15141211110.
"""

EXPECTED_FIXED_POINTS: dict[int, tuple[str, ...]] = {
    2: (
        "111",
        "1001110",
    ),
    3: (
        "22",
        "11110",
        "12111",
        "101100",
        "1022120",
        "2211110",
        "22101100",
    ),
    4: (
        "22",
        "1211110",
        "1311110",
        "1312111",
        "23322110",
        "33123110",
        "132211110",
    ),
    5: (
        "22",
        "14233221",
        "14331231",
        "14333110",
        "23322110",
        "33123110",
        "131211110",
        "141211110",
        "141311110",
        "141312111",
        "1433223110",
        "14132211110",
    ),
    6: (
        "22",
        "14233221",
        "14331231",
        "14333110",
        "15143331",
        "15233221",
        "15331231",
        "15333110",
        "23322110",
        "33123110",
        "1433223110",
        "1514332231",
        "1533223110",
        "14131211110",
        "15131211110",
        "15141311110",
        "15141312111",
        "1514132211110",
    ),
}
