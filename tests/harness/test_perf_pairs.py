"""The verdict rule of ``benchmarks/pairs.py`` (choosing-metrics guide:
a gain needs nine tenths of the pairs *and* a median gap wider than the
parent's own quartile spread)."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "perf_pairs", Path(__file__).parents[2] / "benchmarks" / "pairs.py"
)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def shifted(by):
    return [value + by for value in PARENT]


def test_gain_needs_nine_wins_and_a_gap_wider_than_the_parent_spread():
    assert pairs.verdict("higher", 0.2, PARENT, shifted(10)) == (10, "gain")
    assert pairs.verdict("lower", 0.2, PARENT, shifted(-10)) == (10, "gain")
    # Ten wins, but by less than the parent's quartile distance.
    assert pairs.verdict("higher", 0.2, PARENT, shifted(0.5)) == (
        10, "within bound"
    )
    # A wide gap in the median, but only eight pairs won.
    mixed = shifted(10)
    mixed[0], mixed[1] = 90.0, 90.0
    assert pairs.verdict("higher", 0.2, PARENT, mixed)[0] == 8
    assert pairs.verdict("higher", 0.2, PARENT, mixed)[1] != "gain"


def test_regression_is_judged_against_the_declared_bound():
    assert pairs.verdict("higher", 0.2, PARENT, shifted(-25)) == (
        0, "REGRESSION"
    )
    assert pairs.verdict("lower", 0.2, PARENT, shifted(25)) == (
        0, "REGRESSION"
    )
    assert pairs.verdict("higher", 0.2, PARENT, shifted(-5)) == (
        0, "within bound"
    )
    # Per-layer metrics carry no bound: reported, never judged.
    assert pairs.verdict("lower", None, PARENT, shifted(25)) == (0, "-")


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [100.0, 160.0, 60.0, 150.0, 70.0, 140.0, 80.0, 130.0, 90.0, 100.0]
    assert pairs.verdict("higher", 0.2, noisy, noisy) == (0, "unresolved")


def test_fewer_than_ten_pairs_never_earn_a_gain():
    # One pair has no spread and three of three is "nine tenths": the
    # rule is defined for ten pairs, so fewer report numbers only.
    assert pairs.verdict("higher", 0.2, [100.0], [101.0]) == (
        1, "within bound"
    )
    assert pairs.verdict("higher", 0.2, PARENT[:9], shifted(10)[:9]) == (
        9, "within bound"
    )
    assert pairs.verdict("lower", None, PARENT[:3], shifted(-10)[:3]) == (
        3, "-"
    )
    # A regression needs no such quorum.
    assert pairs.verdict("higher", 0.2, PARENT[:3], shifted(-25)[:3]) == (
        0, "REGRESSION"
    )


def test_both_trees_are_compiled_even_where_bytecode_writing_is_off(
    tmp_path, monkeypatch
):
    # A tree with .pyc files and one without differ in setup_s alone.
    for part in ("src", "benchmarks"):
        (tmp_path / part).mkdir()
        (tmp_path / part / "mod.py").write_text("X = 1\n")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    pairs.compile_tree(str(tmp_path))
    for part in ("src", "benchmarks"):
        assert list((tmp_path / part / "__pycache__").glob("mod.*.pyc"))
