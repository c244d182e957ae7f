"""Cycles of period >= 2 for bases 7 and 8 at the default length limit.

Frozen from the word-keyed cycle search that the tally walk replaced: that
search rendered and stepped every image seed as a word, with no tally
shortcut. Each cycle is listed as its canonical record, smallest word first,
and the cycles in (period, first word) order.
"""

EXPECTED_CYCLES = {
    7: (
        ("152413423110", "152423224110"),
        ("161524134231", "161524232241"),
        ("162413423110", "162423224110"),
        ("16153413225110", "16251423225110", "16251413424110"),
    ),
    8: (
        ("152413423110", "152423224110"),
        ("161524134231", "161524232241"),
        ("162413423110", "162423224110"),
        ("171524134231", "171524232241"),
        ("171624134231", "171624232241"),
        ("1716252413226110", "1726151413425110"),
        ("172413423110", "172423224110"),
        ("16153413225110", "16251423225110", "16251413424110"),
        ("17153413225110", "17251423225110", "17251413424110"),
        ("17161534132251", "17162514232251", "17162514134241"),
    ),
}
