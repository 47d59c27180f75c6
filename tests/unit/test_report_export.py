"""Unit tests for table export formats (CSV / JSON)."""

from __future__ import annotations

import csv
import io
import json

from benchmarks.paper.report import Table


def _sample_table() -> Table:
    table = Table("Fig. X", ["window", "naive", "slickdeque"])
    table.add_row([1, 1000.5, 2000.123])
    table.add_row([2, None, 4000.0])
    return table


def test_to_csv_round_trips():
    text = _sample_table().to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["window", "naive", "slickdeque"]
    assert rows[1][0] == "1"
    assert len(rows) == 3


def test_to_csv_preserves_placeholder_for_missing():
    text = _sample_table().to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[2][1] == "-"


def test_to_json_structure():
    payload = json.loads(_sample_table().to_json())
    assert payload["title"] == "Fig. X"
    assert payload["headers"] == ["window", "naive", "slickdeque"]
    assert len(payload["rows"]) == 2
    assert payload["rows"][0][0] == "1"


def test_exports_agree_with_render():
    table = _sample_table()
    rendered = table.render()
    payload = json.loads(table.to_json())
    for row in payload["rows"]:
        for cell in row:
            assert cell in rendered
