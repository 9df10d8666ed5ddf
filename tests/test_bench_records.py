"""Every speed claim commits a bench record: each BENCH_<slug>.json at the
repository root parses, names itself and says what was measured, how and
against what."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_records_exist():
    assert len(RECORDS) >= 15


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_bench_record_names_itself_and_its_run(path):
    record = json.loads(path.read_text())
    assert record["slug"] == path.stem[len("BENCH_"):]
    for field in ("change", "command", "host", "parent_commit"):
        assert isinstance(record.get(field), str) and record[field], field
