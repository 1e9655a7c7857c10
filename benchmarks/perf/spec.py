"""The benchmark contract, read from ``BENCHMARK.json``.

Names, units and bounds are never repeated in code: a workload that
emits a name the contract does not list (or misses one it does) is an
error in :func:`Spec.check_metrics`, so the file and the harness cannot
drift apart.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                  # "lower" | "higher"
    bound: float | None = None   # end-to-end only: allowed relative worsening


@dataclass(frozen=True)
class Spec:
    command: tuple[str, ...]
    run_seconds: int
    workloads: dict[str, str]            # name -> why
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric]

    def metrics(self, traced: bool) -> dict[str, Metric]:
        return self.per_layer if traced else self.end_to_end

    def check_metrics(self, values: dict[str, float], traced: bool) -> None:
        """Raise unless ``values`` has exactly the contract's names."""
        want = set(self.metrics(traced))
        have = set(values)
        if want != have:
            raise ValueError(
                f"metric names drifted from BENCHMARK.json: "
                f"missing {sorted(want - have)}, extra {sorted(have - want)}"
            )


def load_spec(path: str = SPEC_PATH) -> Spec:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return Spec(
        command=tuple(raw["command"]),
        run_seconds=int(raw["run_seconds"]),
        workloads={w["name"]: w["why"] for w in raw["workloads"]},
        end_to_end={
            m["name"]: Metric(m["name"], m["unit"], m["better"], m["bound"])
            for m in raw["end_to_end"]
        },
        per_layer={
            m["name"]: Metric(m["name"], m["unit"], m["better"])
            for m in raw["per_layer"]
        },
    )
