"""First-order accelerator mapping model.

Monte-Carlo samples are spread over replicated exit engines: fully
spatial (one engine per sample), fully temporal (one engine runs every
sample in rounds), or a hybrid in between. Latency follows a simple
cycle model and resources scale linearly with the engine count plus a
per-dropout-layer unit cost. The numbers are for trend-level comparison
between design points, not for signing off a floorplan.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .documents import field_names, fields, read_json, write_json
from .metrics import FlopReport
from .netspec import MultiExitSpec

RESOURCE_KEYS = ("dsp", "bram", "lut", "ff")
HARDWARE_ENV_VAR = "MCEXIT_HARDWARE"


@dataclass(frozen=True)
class HardwareModel:
    """Throughput and cost coefficients for one target device."""

    ops_per_cycle_per_engine: float
    clock_mhz: float
    engine_cost: dict[str, float]
    budget: dict[str, float]
    dropout_unit_cost: dict[str, float]

    def __post_init__(self) -> None:
        if self.ops_per_cycle_per_engine <= 0 or self.clock_mhz <= 0:
            raise ValueError("throughput and clock must be positive")
        for name, table in (("engine_cost", self.engine_cost), ("budget", self.budget)):
            fields(table, name, required=RESOURCE_KEYS)
            if any(v < 0 for v in table.values()):
                raise ValueError(f"{name} entries must be non-negative")
        fields(self.dropout_unit_cost, "dropout_unit_cost", ("rng_lut", "mask_rom_bram"))

    def to_dict(self) -> dict[str, Any]:
        return {
            "ops_per_cycle_per_engine": self.ops_per_cycle_per_engine,
            "clock_mhz": self.clock_mhz,
            "engine_cost": dict(self.engine_cost),
            "budget": dict(self.budget),
            "dropout_unit_cost": dict(self.dropout_unit_cost),
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "HardwareModel":
        required = ("ops_per_cycle_per_engine", "clock_mhz", "engine_cost", "budget")
        doc = fields(doc, "hardware model", field_names(cls), required)
        tables = {
            name: {k: float(v) for k, v in fields(doc.get(name, {}), name).items()}
            for name in ("engine_cost", "budget", "dropout_unit_cost")
        }
        return cls(
            ops_per_cycle_per_engine=float(doc["ops_per_cycle_per_engine"]),
            clock_mhz=float(doc["clock_mhz"]),
            **tables,
        )


def default_hardware_model() -> HardwareModel:
    """Illustrative defaults shaped after a large Kintex UltraScale part."""
    return HardwareModel(
        ops_per_cycle_per_engine=128.0,
        clock_mhz=200.0,
        engine_cost={"dsp": 320.0, "bram": 96.0, "lut": 28000.0, "ff": 40000.0},
        budget={"dsp": 5520.0, "bram": 2160.0, "lut": 663360.0, "ff": 1326720.0},
        dropout_unit_cost={"rng_lut": 1200.0, "mask_rom_bram": 2.0},
    )


def load_hardware_model(path: str | Path | None = None) -> HardwareModel:
    """Load a hardware model file; falls back to the MCEXIT_HARDWARE
    environment variable, then to the built-in defaults."""
    if path is None:
        path = os.environ.get(HARDWARE_ENV_VAR)
    if path is None:
        return default_hardware_model()
    return HardwareModel.from_dict(read_json(path))


def save_hardware_model(hw: HardwareModel, path: str | Path) -> None:
    write_json(path, hw.to_dict())


@dataclass(frozen=True)
class MappingPlan:
    """How n_sample Monte-Carlo samples share n_engines exit engines."""

    strategy: str
    n_sample: int
    n_engines: int
    rounds: int
    sample_assignment: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LatencyEstimate:
    cycles: float
    ms: float


@dataclass(frozen=True)
class ResourceEstimate:
    usage: dict[str, float]
    fits: bool


def build_mapping(n_sample: int, n_engines: int, name: str = "n_engines") -> MappingPlan:
    """Round-robin samples onto engines; rounds = ceil(n_sample/n_engines).

    n_engines == n_sample is the fully spatial mapping (one round),
    n_engines == 1 the fully temporal one, anything between is a hybrid.
    An engine count out of range is rejected; the error calls it name.
    """
    if n_sample < 1:
        raise ValueError("n_sample must be >= 1")
    if not 1 <= n_engines <= n_sample:
        raise ValueError(f"{name} must be in [1, {n_sample}], got {n_engines}")
    assignment = tuple(
        tuple(range(e, n_sample, n_engines)) for e in range(n_engines)
    )
    if n_engines == n_sample:
        strategy = "spatial"
    elif n_engines == 1:
        strategy = "temporal"
    else:
        strategy = "hybrid"
    return MappingPlan(
        strategy=strategy,
        n_sample=n_sample,
        n_engines=n_engines,
        rounds=math.ceil(n_sample / n_engines),
        sample_assignment=assignment,
    )


def estimate_latency(plan: MappingPlan, report: FlopReport, hw: HardwareModel) -> LatencyEstimate:
    """cycles = trunk_flops/throughput + rounds * per_sample_flops/throughput.

    One Monte-Carlo sample costs the average exit-head FLOPs; engines in
    the same round run concurrently, so only the round count matters.
    """
    opc = hw.ops_per_cycle_per_engine
    per_sample = report.flop_exit_total / max(1, len(report.per_exit))
    cycles = report.flop_main / opc + plan.rounds * (per_sample / opc)
    return LatencyEstimate(cycles=cycles, ms=cycles / (hw.clock_mhz * 1e3))


def estimate_resources(
    plan: MappingPlan, me: MultiExitSpec | None, hw: HardwareModel
) -> ResourceEstimate:
    """Linear engine cost plus one RNG (MCD, LUT) or one mask ROM
    (masksembles, BRAM) per dropout layer. Pass me=None for the bare
    engine cost."""
    usage = {k: plan.n_engines * hw.engine_cost[k] for k in RESOURCE_KEYS}
    if me is not None and me.dropout is not None:
        sites = len(me.dropout_sites)
        if me.dropout.kind == "mcd":
            usage["lut"] += sites * hw.dropout_unit_cost.get("rng_lut", 0.0)
        else:
            usage["bram"] += sites * hw.dropout_unit_cost.get("mask_rom_bram", 0.0)
    fits = all(usage[k] <= hw.budget[k] for k in RESOURCE_KEYS)
    return ResourceEstimate(usage=usage, fits=fits)


def pareto_mappings(
    n_sample: int,
    report: FlopReport,
    hw: HardwareModel,
    me: MultiExitSpec | None = None,
) -> list[tuple[MappingPlan, LatencyEstimate, ResourceEstimate]]:
    """Evaluate every engine count from 1 to n_sample and keep the points
    no other point beats on both latency and resources."""
    points = []
    for engines in range(1, n_sample + 1):
        plan = build_mapping(n_sample, engines)
        points.append(
            (plan, estimate_latency(plan, report, hw), estimate_resources(plan, me, hw))
        )

    def dominates(a, b) -> bool:
        la, ra = a[1].cycles, a[2].usage
        lb, rb = b[1].cycles, b[2].usage
        no_worse = la <= lb and all(ra[k] <= rb[k] for k in RESOURCE_KEYS)
        better = la < lb or any(ra[k] < rb[k] for k in RESOURCE_KEYS)
        return no_worse and better

    frontier = [p for p in points if not any(dominates(q, p) for q in points)]
    frontier.sort(key=lambda p: (p[1].cycles, p[0].n_engines))
    return frontier
