"""EXPERIMENTS.md is exactly what its renderer makes of results.jsonl."""

import importlib.util
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def renderer():
    path = ROOT / "benchmarks" / "make_experiments_md.py"
    spec = importlib.util.spec_from_file_location("make_experiments_md", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regenerating_the_committed_file_changes_nothing(
    renderer, tmp_path, capsys
):
    output = tmp_path / "EXPERIMENTS.md"
    shutil.copyfile(renderer.OUTPUT, output)
    renderer.main(output=output)
    assert output.read_bytes() == renderer.OUTPUT.read_bytes()


def test_table_columns_are_the_union_of_row_keys(renderer):
    lines = renderer.render_table([{"a": 1}, {"b": 2.5, "a": 3}]).splitlines()
    assert lines[0] == "| a | b |"
    assert lines[2:] == ["| 1 |  |", "| 3 | 2.5 |"]


def test_a_file_without_markers_is_refused(renderer):
    with pytest.raises(SystemExit, match="markers"):
        renderer.render("# EXPERIMENTS\n", {})


def test_a_stored_record_replaces_only_its_own_experiment(renderer, tmp_path):
    results = tmp_path / "results.jsonl"
    for name, value in (("E10", 1), ("arena", 2), ("E2", 3), ("E10", 4)):
        record = {"experiment": name, "claim": "c", "rows": [{"v": value}]}
        renderer.store_record(record, results)
    before = results.read_bytes()
    records = renderer.read_records(results)
    assert list(records) == ["E2", "E10", "arena"]  # numeric, then other ids
    assert records["E10"]["rows"] == [{"v": 4}]
    renderer.store_record(records["E2"], results)
    assert results.read_bytes() == before
