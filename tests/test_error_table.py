"""README's "Exit codes and errors" table is the one statement of the error
contract: each row gives fragments of its messages and the tests that pin it.
Check the table against both sides: every test and parametrize id it names
exists, every case of the error case tables and every test named for an exit
code or a SchemaError has a row, and every fragment is in `src/fedlora/`."""

import importlib
import re
from pathlib import Path

from test_checkpoint import ADAPTER_CORRUPTIONS, MODEL_CORRUPTIONS, VOCAB_CORRUPTIONS
from test_cli import BAD_CONFIGS, BAD_GRIDS, UNREADABLE_FILES

ROOT = Path(__file__).resolve().parents[1]

CASE_TABLES = {  # test: the case table it is parametrized over, whose every key needs a row
    "test_cli.py::test_bad_config_exits_2": BAD_CONFIGS,
    "test_cli.py::test_ablate_bad_grid_cell_exits_2_writing_nothing": BAD_GRIDS,
    "test_cli.py::test_unreadable_file_exits_2_naming_it": UNREADABLE_FILES,
    "test_checkpoint.py::test_corrupt_model_file_raises_schema_error": MODEL_CORRUPTIONS,
    "test_checkpoint.py::test_corrupt_adapter_file_raises_schema_error": ADAPTER_CORRUPTIONS,
    "test_checkpoint.py::test_corrupt_vocab_file_raises_schema_error": VOCAB_CORRUPTIONS,
}
PINNING_TEST = re.compile(r"exits_[12]|raises_schema_error")  # a test named for what it pins
REFERENCE = re.compile(r"(\w+)\.py::(\w+)(?:\[(.*)\])?")


def table_rows() -> list[tuple[list[str], list[str]]]:
    """(message fragments, test references) of each row of the table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Exit codes and errors\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in [line for line in section.splitlines() if line.startswith("| ")][1:]:  # after the header
        cells = line.strip().strip("|").split("|")
        assert len(cells) == 6, line
        fragments, tests = (re.findall(r"`([^`]+)`", cells[i]) for i in (3, 5))
        assert fragments and tests, line
        rows.append((fragments, tests))
    return rows


def defined_tests() -> dict[str, set[str]]:
    """The top-level test functions of each tests/*.py file, by file name,
    found with a regular expression, many times faster than parsing with `ast`."""
    return {path.name: set(re.findall(r"^def (test_\w+)", path.read_text(encoding="utf-8"), re.M))
            for path in (ROOT / "tests").glob("test_*.py")}


def parametrize_ids(func) -> set[str]:
    """The ids pytest gives `func`'s cases: one parametrize mark, with its ids
    given or with values that are strings or tuples of strings."""
    (mark,) = [mark for mark in getattr(func, "pytestmark", []) if mark.name == "parametrize"]
    if "ids" in mark.kwargs:
        return set(mark.kwargs["ids"])
    return {"-".join(value) if isinstance(value, tuple) else value for value in mark.args[1]}


def test_every_named_test_and_case_exists():
    defined = defined_tests()
    missing = []
    for _, tests in table_rows():
        for ref in tests:
            module, name, case = REFERENCE.fullmatch(ref).groups()
            if name not in defined.get(f"{module}.py", ()) or (case is not None and case not in
                    parametrize_ids(getattr(importlib.import_module(module), name))):
                missing.append(ref)
    assert missing == []


def test_every_error_case_and_exit_code_test_has_a_row():
    named = {ref for _, tests in table_rows() for ref in tests}
    untabled = [f"{test}[{key}]" for test, table in CASE_TABLES.items() for key in table
                if f"{test}[{key}]" not in named]
    named_tests = {ref.split("[")[0] for ref in named}
    untabled += sorted(f"{file}::{name}" for file, names in defined_tests().items()
                       for name in names
                       if PINNING_TEST.search(name) and f"{file}::{name}" not in named_tests)
    assert untabled == []


def test_every_message_fragment_is_in_the_source():
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in sorted((ROOT / "src" / "fedlora").glob("*.py")))
    absent = [fragment for fragments, _ in table_rows() for fragment in fragments
              if fragment not in source]
    assert absent == []
