"""README's CSV header and quoted constants against the code."""

import pathlib
import re

import pytest

from bhcp import baseline, bench, pint, space

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
UNITS = {None: 1, "KiB": 2**10, "MiB": 2**20, "GiB": 2**30}


def test_csv_header_is_the_schema():
    assert re.findall(r"^method,.*$", README, re.MULTILINE) == [bench.CSV_COLUMNS]


@pytest.mark.parametrize(
    "name, value",
    [
        ("BLOCK_BUDGET", pint.BLOCK_BUDGET),
        ("ERROR_BOUND_LIMIT", pint.ERROR_BOUND_LIMIT),
        ("NNZ_BUDGET", baseline.NNZ_BUDGET),
        ("NOISE_FREE_ALPHA", bench.NOISE_FREE_ALPHA),
        ("BATCH_BYTES", space.BATCH_BYTES),
    ],
)
def test_quoted_constant_is_the_code(name, value):
    # quoted as `NAME` (value unit) or `module.NAME` = value, across lines
    text = " ".join(README.split())
    quotes = re.findall(
        rf"`(?:\w+\.)?{name}` (?:= |\()(\d[\d.]*(?:e[+-]?\d+)?)(?: ([KMG]iB))?", text
    )
    assert quotes, f"README quotes no value for {name}"
    for number, unit in quotes:
        assert float(number) * UNITS[unit or None] == value, (name, number, unit)
