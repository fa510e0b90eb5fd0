"""``benchmarks/results/summary.txt`` keeps every module's section when
only some modules run (``benchmarks/conftest.py``'s ``merge_summary``)."""

import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SUMMARY = BENCHMARKS / "results" / "summary.txt"


def _load_merge_summary():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", BENCHMARKS / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.merge_summary


merge_summary = _load_merge_summary()

PREVIOUS = (
    "Figure A: first.\n  a row\n\n"
    "Figure B: second.\n  old row\n  old note\n\n"
    "Figure C: third.\n    t= 0.0s  series\n\n"
)


def test_rerun_section_is_replaced_in_place():
    merged = merge_summary(PREVIOUS, [("Figure B: second.", ["  new row"])])
    assert merged == (
        "Figure A: first.\n  a row\n\n"
        "Figure B: second.\n  new row\n\n"
        "Figure C: third.\n    t= 0.0s  series\n\n"
    )


def test_new_section_is_appended():
    merged = merge_summary(PREVIOUS, [("Figure D: fourth.", ["  row"])])
    assert merged == PREVIOUS + "Figure D: fourth.\n  row\n\n"


def test_first_run_writes_sections_in_run_order():
    sections = [("Figure B: second.", ["  row"]), ("Figure A: first.", [])]
    assert merge_summary("", sections) == (
        "Figure B: second.\n  row\n\nFigure A: first.\n\n")


def test_committed_summary_round_trips():
    text = SUMMARY.read_text()
    assert merge_summary(text, []) == text
    blocks = [block.split("\n") for block in text.split("\n\n") if block]
    sections = [(block[0], block[1:]) for block in blocks]
    assert len(sections) > 10
    assert merge_summary(text, sections[3:5]) == text
