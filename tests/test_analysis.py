"""Tests for text rendering."""

from repro.analysis.reporting import ascii_bar_chart, format_bytes, format_table


def test_format_bytes():
    assert format_bytes(512) == "512.00 B"
    assert format_bytes(2048) == "2.00 KiB"
    assert format_bytes(3 << 20) == "3.00 MiB"
    assert format_bytes(5 << 30) == "5.00 GiB"


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1.0], ["bbbb", 123456.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    # All rows aligned to the same width.
    assert len(set(len(l) for l in lines[1:2])) == 1


def test_format_table_float_formatting():
    text = format_table(["v"], [[0.000123], [1234567.0], [1.5]])
    assert "0.000123" in text
    assert "1.23e+06" in text
    assert "1.5" in text


def test_bar_chart_contains_all_series():
    text = ascii_bar_chart(
        ["g1", "g2"],
        {"A": [1.0, 2.0], "B": [3.0, None]},
        width=10,
    )
    assert "g1:" in text and "g2:" in text
    assert text.count("A") >= 2
    assert "n/a" in text  # the None entry


def test_bar_chart_log_scale_orders_bars():
    text = ascii_bar_chart(["g"], {"small": [0.01], "big": [100.0]}, width=20, log_scale=True)
    small_bar = [l for l in text.splitlines() if "small" in l][0].count("#")
    big_bar = [l for l in text.splitlines() if "big" in l][0].count("#")
    assert big_bar > small_bar
    assert small_bar >= 1


def test_bar_chart_empty():
    assert "(no data)" in ascii_bar_chart(["g"], {"A": [None]}, width=10)
