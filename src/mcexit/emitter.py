"""Accelerator plan emission.

Turns a dropout-ready multi-exit network plus a sample-to-engine mapping
into a self-contained deployment plan. The plan holds the network's own
multi-exit document once (layers, exits, dropout config) and the datapath
format, then only what that document lacks: one hardware unit per dropout
site (an on-chip RNG recipe for Bernoulli dropout, an embedded mask ROM
for fixed-mask ensembles), the sample-to-engine assignment, latency and
resource estimates. render_report turns it into a human-readable report.
The JSON form is byte-stable for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import inference, netspec
from .documents import field_names, fields, read_json, write_json
from .dropout import DropoutConfig
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

SCHEMA_VERSION = 2


class EmitError(ValueError):
    """The network, mapping, and hardware model do not line up."""


@dataclass(frozen=True)
class AcceleratorPlan:
    """Everything a code generator downstream needs: the network and its
    datapath format, plus the dropout units, mapping and estimates."""

    schema_version: int
    network: MultiExitSpec
    qformat: QFormat | None
    n_sample: int
    n_pass: int
    mapping: dict[str, Any]
    dropout_units: tuple[dict[str, Any], ...]
    estimates: dict[str, Any]
    design: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema_version": self.schema_version,
            "network": netspec.serialize_multi_exit(self.network),
            "qformat": self.qformat.to_dict() if self.qformat is not None else None,
            "n_sample": self.n_sample,
            "n_pass": self.n_pass,
            "mapping": self.mapping,
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
        q = doc["qformat"]
        return cls(
            schema_version=SCHEMA_VERSION,
            network=netspec.parse_multi_exit(doc["network"]),
            qformat=QFormat.from_dict(q) if q is not None else None,
            n_sample=doc["n_sample"],
            n_pass=doc["n_pass"],
            mapping=dict(doc["mapping"]),
            dropout_units=tuple(dict(rec) for rec in doc["dropout_units"]),
            estimates=dict(doc["estimates"]),
            design=dict(doc["design"]) if "design" in doc else None,
            metrics=dict(doc["metrics"]) if "metrics" in doc else None,
        )


def _dropout_unit_records(me: MultiExitSpec) -> list[dict[str, Any]]:
    """Per site, what network.dropout does not say: the masked width and
    either the RNG keying rule or the mask table."""
    if me.dropout is None:
        return []
    tables = inference.site_mask_sets(me) if me.dropout.kind == "masksembles" else {}
    records: list[dict[str, Any]] = []
    for exit_index, site_id in me.dropout_sites:
        rec: dict[str, Any] = {
            "site": site_id,
            "exit": exit_index,
            "features": inference.site_feature_count(me, exit_index, site_id),
        }
        if me.dropout.kind == "mcd":
            rec["rng"] = {
                "generator": "philox4x64",
                "key": "blake2b-128(seed|sample_index|site)",
                "uniform_bits": 53,
            }
        else:
            rec["mask_select"] = "pass_index % num_masks"
            rec["masks"] = [[int(v) for v in row] for row in tables[site_id].masks]
        records.append(rec)
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

    me must pass netspec.validate, and n_pass is plan.n_sample / n_exit,
    which must divide evenly and, for masksembles, fit the mask table.
    The plan holds me itself, so inference.predict(plan.network, x,
    plan.n_pass, weights, seed, plan.qformat) replays it.
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
        network=me,
        qformat=qformat,
        n_sample=plan.n_sample,
        n_pass=n_pass,
        mapping=mapping_doc,
        dropout_units=tuple(_dropout_unit_records(me)),
        estimates=estimates,
        design=dict(design) if design is not None else None,
        metrics=metrics_report.to_dict() if metrics_report is not None else None,
    )


def save_plan(plan: AcceleratorPlan, path: str | Path) -> None:
    write_json(path, plan.to_dict())


def load_plan(path: str | Path) -> AcceleratorPlan:
    return AcceleratorPlan.from_dict(read_json(path))


def _unit_lines(cfg: DropoutConfig, unit: Mapping[str, Any]) -> list[str]:
    """A dropout unit's report heading and pseudocode."""
    site = unit["site"]
    if cfg.kind == "mcd":
        keep = cfg.keep_rate
        scale = f"(1 / {keep})" if cfg.inverted else f"{keep}"
        return [
            f"  {site}: bernoulli rng, keep_rate={keep},"
            f" granularity={cfg.granularity}, features={unit['features']}",
            f"      u[f] = uniform53(philox(key(seed={cfg.seed}, sample, '{site}')))",
            f"      y[f] = 0 if u[f] > {keep} else x[f] * {scale}",
        ]
    return [
        f"  {site}: mask rom, {cfg.num_masks} x {unit['features']} bits, scale={cfg.scale}",
        f"      m = mask_rom['{site}'][pass % {cfg.num_masks}]",
        "      y[f] = x[f] * m[f]",
    ]


def render_report(plan: AcceleratorPlan) -> str:
    """Fixed-layout text report of the plan; ends with a WARNING line for
    every resource over budget."""
    me, q = plan.network, plan.qformat
    lines = [
        f"accelerator plan (schema {plan.schema_version})",
        f"strategy: {plan.mapping['strategy']}"
        f" ({plan.mapping['n_engines']} engine(s), {plan.mapping['rounds']} round(s))",
        f"samples per inference: {plan.n_sample}"
        f" ({me.n_exit} exit(s) x {plan.n_pass} pass(es))",
        "",
        "layers:",
    ]
    qtext = f"q{q.total_bits}.{q.integer_bits}" if q is not None else "f32"
    segments = [("trunk", "shared", me.trunk.layers)] + [
        (f"exit{ex.exit_index}", "replicated", ex.head_layers) for ex in me.exits
    ]
    for segment, placement, layers in segments:
        for layer in layers:
            fmt = "f32" if layer.kind == "softmax" else qtext
            lines.append(f"  {segment:<8} {layer.id:<24} {layer.kind:<13} {placement:<10} {fmt}")
    lines.append("")
    lines.append("dropout units:")
    if not plan.dropout_units:
        lines.append("  (none)")
    for unit in plan.dropout_units:
        lines.extend(_unit_lines(me.dropout, unit))
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
