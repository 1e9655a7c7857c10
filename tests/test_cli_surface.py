"""CLI surface snapshot: ``python -m repro`` flag names are frozen.

Scripts, docs, and the CI workflows spell these flags out; renaming one
is a breaking change that must be made here deliberately, in the same
commit that updates every caller.  The snapshot pins, per subcommand,
the exact set of option strings (and positional dests in ``<angle>``
brackets); defaults and help texts are free to evolve.
"""

import argparse

import pytest

from repro.__main__ import build_parser

# The frozen flag inventory.  Additions are fine (append here); removals
# and renames are breaking.
CLI_SURFACE = {
    "run": ["--checkpoint-interval", "--crash", "--fifo", "--flush-interval",
            "--help", "--horizon", "--protocol", "--seed", "--timeline",
            "--timeline-limit", "--workload", "-h", "-n"],
    "table1": ["--help", "--jobs", "--seeds", "-h", "-n"],
    "figures": ["--help", "-h"],
    "trace": ["--help", "--out", "--seed", "-h", "<scenario>"],
    "stress": ["--cache-dir", "--fail-fast", "--help", "--jobs", "--live",
               "--no-shrink", "--out-dir", "--profile", "--quiet", "--replay",
               "--schedules", "--seed", "-h"],
    "overhead": ["--crash", "--help", "--horizon", "--seed", "-h", "-n"],
    "live": ["--crash-at", "--crash-pid", "--downtime", "--fault-seed",
             "--faults", "--help", "--jobs", "--no-crash", "--run-seconds",
             "--workdir", "-h", "-n"],
    "rollback": ["--at", "--data-dir", "--dry-run", "--earliest", "--help",
                 "--pids", "--reason", "--witness", "-h", "-n"],
    "serve": ["--crash-at", "--downtime", "--fault-seed", "--help",
              "--no-crash", "--nodes-per-shard", "--run-seconds", "--shards",
              "--workdir", "-h"],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return dict(action.choices)


def test_subcommand_set_is_frozen():
    assert sorted(_subparsers()) == sorted(CLI_SURFACE)


@pytest.mark.parametrize("name", sorted(CLI_SURFACE))
def test_subcommand_flags_are_frozen(name):
    sub = _subparsers()[name]
    surface = []
    for action in sub._actions:
        if action.option_strings:
            surface.extend(action.option_strings)
        else:
            surface.append(f"<{action.dest}>")
    assert sorted(surface) == sorted(CLI_SURFACE[name]), name


@pytest.mark.parametrize("name", sorted(CLI_SURFACE))
def test_every_subcommand_has_a_runner_and_help(name):
    sub = _subparsers()[name]
    assert callable(sub.get_default("func")), name


def test_shared_concepts_spell_the_same_flag():
    """The consistency contract behind the shared helpers: wherever a
    concept appears, it uses one spelling (never --outfile/--work-dir/
    --rand-seed variants)."""
    forbidden = {"--outfile", "--output", "--work-dir", "--out-file",
                 "--rand-seed", "--random-seed", "--num-shards"}
    for name, sub in _subparsers().items():
        for action in sub._actions:
            assert not forbidden.intersection(action.option_strings), (
                name, action.option_strings
            )
