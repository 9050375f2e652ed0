"""Accelerator plan emission.

Turns a dropout-ready multi-exit network plus a sample-to-engine mapping
into a self-contained deployment plan: per-layer placement records, one
hardware unit description per dropout site (an on-chip RNG recipe for
Bernoulli dropout, an embedded mask ROM for fixed-mask ensembles),
latency and resource estimates, and a human-readable report. The JSON
form is byte-stable for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import inference, netspec
from .documents import dumps, field_names, fields, loads, read_json, write_json
from .mapping import (
    RESOURCE_KEYS,
    HardwareModel,
    LatencyEstimate,
    MappingPlan,
    ResourceEstimate,
)
from .metrics import MetricsReport
from .netspec import MultiExitSpec
from .runtime import QFormat

SCHEMA_VERSION = 1


class EmitError(ValueError):
    """The network, mapping, and hardware model do not line up."""


@dataclass(frozen=True)
class AcceleratorPlan:
    """Everything a code generator downstream needs, in plain data."""

    schema_version: int
    strategy: str
    n_sample: int
    n_pass: int
    mapping: dict[str, Any]
    layers: tuple[dict[str, Any], ...]
    dropout_units: tuple[dict[str, Any], ...]
    estimates: dict[str, Any]
    design: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema_version": self.schema_version,
            "strategy": self.strategy,
            "n_sample": self.n_sample,
            "n_pass": self.n_pass,
            "mapping": self.mapping,
            "layers": list(self.layers),
            "dropout_units": list(self.dropout_units),
            "estimates": self.estimates,
        }
        if self.design is not None:
            doc["design"] = self.design
        if self.metrics is not None:
            doc["metrics"] = self.metrics
        return doc

    @classmethod
    def from_dict(cls, doc: Any) -> "AcceleratorPlan":
        names = field_names(cls)
        doc = fields(doc, "plan", names, sorted(names - {"design", "metrics"}))
        if doc["schema_version"] != SCHEMA_VERSION:
            raise EmitError(
                f"unsupported plan schema {doc['schema_version']!r},"
                f" expected {SCHEMA_VERSION}"
            )
        return cls(
            schema_version=SCHEMA_VERSION,
            strategy=doc["strategy"],
            n_sample=doc["n_sample"],
            n_pass=doc["n_pass"],
            mapping=dict(doc["mapping"]),
            layers=tuple(dict(rec) for rec in doc["layers"]),
            dropout_units=tuple(dict(rec) for rec in doc["dropout_units"]),
            estimates=dict(doc["estimates"]),
            design=dict(doc["design"]) if "design" in doc else None,
            metrics=dict(doc["metrics"]) if "metrics" in doc else None,
        )


def _qformat_doc(qformat: QFormat | None) -> dict[str, int] | None:
    if qformat is None:
        return None
    return {"total_bits": qformat.total_bits, "integer_bits": qformat.integer_bits}


def _layer_records(me: MultiExitSpec, qformat: QFormat | None) -> list[dict[str, Any]]:
    q = _qformat_doc(qformat)
    records: list[dict[str, Any]] = []
    for layer in me.trunk.layers:
        records.append(
            {
                "id": layer.id,
                "kind": layer.kind,
                "segment": "trunk",
                "placement": "shared",
                "pipeline": True,
                "qformat": q,
            }
        )
    for ex in me.exits:
        for layer in ex.head_layers:
            rec: dict[str, Any] = {
                "id": layer.id,
                "kind": layer.kind,
                "segment": f"exit{ex.exit_index}",
                "placement": "replicated",
                "pipeline": True,
                "qformat": None if layer.kind == "softmax" else q,
            }
            if layer.kind == "dropout_point":
                rec["dropout_unit"] = layer.id
            records.append(rec)
    return records


def _dropout_unit_records(me: MultiExitSpec) -> list[dict[str, Any]]:
    cfg = me.dropout
    if cfg is None:
        return []
    records: list[dict[str, Any]] = []
    if cfg.kind == "mcd":
        for exit_index, site_id in me.dropout_sites:
            records.append(
                {
                    "site": site_id,
                    "exit": exit_index,
                    "kind": "mcd",
                    "keep_rate": cfg.keep_rate,
                    "granularity": cfg.granularity,
                    "features": inference.site_feature_count(me, exit_index, site_id),
                    "rng": {
                        "generator": "philox4x64",
                        "key": "blake2b-128(seed|sample_index|site)",
                        "seed": cfg.seed,
                        "uniform_bits": 53,
                    },
                }
            )
    else:
        tables = inference.site_mask_sets(me)
        for exit_index, site_id in me.dropout_sites:
            table = tables[site_id]
            records.append(
                {
                    "site": site_id,
                    "exit": exit_index,
                    "kind": "masksembles",
                    "num_masks": cfg.num_masks,
                    "scale": cfg.scale,
                    "features": table.feature_count,
                    "mask_select": "pass_index % num_masks",
                    "masks": [[int(v) for v in row] for row in table.masks],
                }
            )
    return records


def emit_plan(
    me: MultiExitSpec,
    plan: MappingPlan,
    hw: HardwareModel,
    latency: LatencyEstimate,
    resources: ResourceEstimate,
    qformat: QFormat | None = None,
    design: Mapping[str, Any] | None = None,
    metrics_report: MetricsReport | None = None,
) -> AcceleratorPlan:
    """Assemble the deployment plan and cross-check its pieces.

    n_pass is plan.n_sample / n_exit and must divide evenly; every layer
    of the network must land in exactly one record.
    """
    problems = netspec.validate(me)
    if problems:
        raise EmitError(f"network failed validation: {problems[0].message}")
    if plan.n_sample % me.n_exit != 0:
        raise EmitError(
            f"mapping covers {plan.n_sample} samples, not divisible by {me.n_exit} exits"
        )
    n_pass = plan.n_sample // me.n_exit
    if me.dropout is not None and me.dropout.kind == "masksembles":
        if n_pass > me.dropout.num_masks:
            raise EmitError(
                f"{n_pass} passes per exit exceed the {me.dropout.num_masks}-mask table"
            )

    layers = _layer_records(me, qformat)
    seen = [rec["id"] for rec in layers]
    expected = [layer.id for layer in netspec.all_layers(me)]
    if seen != expected:
        raise EmitError("layer records do not cover the network exactly once")

    units = _dropout_unit_records(me)
    mapping_doc = {
        "strategy": plan.strategy,
        "n_engines": plan.n_engines,
        "rounds": plan.rounds,
        "sample_assignment": [list(r) for r in plan.sample_assignment],
    }
    estimates = {
        "latency_cycles": latency.cycles,
        "latency_ms": latency.ms,
        "clock_mhz": hw.clock_mhz,
        "resources": {k: resources.usage[k] for k in RESOURCE_KEYS},
        "budget": {k: hw.budget[k] for k in RESOURCE_KEYS},
        "fits": resources.fits,
    }
    return AcceleratorPlan(
        schema_version=SCHEMA_VERSION,
        strategy=plan.strategy,
        n_sample=plan.n_sample,
        n_pass=n_pass,
        mapping=mapping_doc,
        layers=tuple(layers),
        dropout_units=tuple(units),
        estimates=estimates,
        design=dict(design) if design is not None else None,
        metrics=metrics_report.to_dict() if metrics_report is not None else None,
    )


def plan_to_json(plan: AcceleratorPlan) -> str:
    return dumps(plan.to_dict())


def plan_from_json(text: str) -> AcceleratorPlan:
    return AcceleratorPlan.from_dict(loads(text, "plan"))


def save_plan(plan: AcceleratorPlan, path: str | Path) -> None:
    write_json(path, plan.to_dict())


def load_plan(path: str | Path) -> AcceleratorPlan:
    return AcceleratorPlan.from_dict(read_json(path))


def _unit_pseudocode(unit: Mapping[str, Any]) -> list[str]:
    if unit["kind"] == "mcd":
        keep = unit["keep_rate"]
        return [
            f"u[f] = uniform53(philox(key(seed={unit['rng']['seed']},"
            f" sample, '{unit['site']}')))",
            f"y[f] = 0 if u[f] > {keep} else x[f] * {keep}",
        ]
    return [
        f"m = mask_rom['{unit['site']}'][pass % {unit['num_masks']}]",
        "y[f] = x[f] * m[f]",
    ]


def render_report(plan: AcceleratorPlan) -> str:
    """Fixed-layout text report of the plan; ends with a WARNING line for
    every resource over budget."""
    lines = [
        f"accelerator plan (schema {plan.schema_version})",
        f"strategy: {plan.strategy}"
        f" ({plan.mapping['n_engines']} engine(s), {plan.mapping['rounds']} round(s))",
        f"samples per inference: {plan.n_sample}"
        f" ({plan.n_sample // plan.n_pass} exit(s) x {plan.n_pass} pass(es))",
        "",
        "layers:",
    ]
    for rec in plan.layers:
        q = rec["qformat"]
        qtext = f"q{q['total_bits']}.{q['integer_bits']}" if q else "f32"
        lines.append(
            f"  {rec['segment']:<8} {rec['id']:<24} {rec['kind']:<13}"
            f" {rec['placement']:<10} {qtext}"
        )
    lines.append("")
    lines.append("dropout units:")
    if not plan.dropout_units:
        lines.append("  (none)")
    for unit in plan.dropout_units:
        if unit["kind"] == "mcd":
            head = (
                f"  {unit['site']}: bernoulli rng, keep_rate={unit['keep_rate']},"
                f" granularity={unit['granularity']}, features={unit['features']}"
            )
        else:
            head = (
                f"  {unit['site']}: mask rom, {unit['num_masks']} x {unit['features']} bits,"
                f" scale={unit['scale']}"
            )
        lines.append(head)
        for code in _unit_pseudocode(unit):
            lines.append(f"      {code}")
    lines.append("")
    est = plan.estimates
    lines.append("resources:")
    over = []
    for key in RESOURCE_KEYS:
        used, cap = est["resources"][key], est["budget"][key]
        lines.append(f"  {key:<5} {used:>12.0f} / {cap:.0f}")
        if used > cap:
            over.append(key)
    lines.append(
        f"latency: {est['latency_cycles']:.0f} cycles ="
        f" {est['latency_ms']:.6f} ms @ {est['clock_mhz']} MHz"
    )
    if plan.metrics is not None:
        m = plan.metrics
        lines.append(
            f"measured: accuracy={m['accuracy']:.4f} ece={m['ece']:.4f}"
            f" ape={m['ape']:.4f} flops_fraction={m['flops_fraction']:.4f}"
        )
    for key in over:
        lines.append(f"WARNING: {key} over budget")
    return "\n".join(lines) + "\n"
