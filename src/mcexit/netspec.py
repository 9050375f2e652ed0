"""Network descriptions and structural transforms.

A plain network is an ordered chain of layers ending in a softmax
classifier. place_exits() splits it into a shared trunk plus one exit
head per pooling block (the original classifier becomes the final
exit), and insert_dropout() adds stochastic dropout points in front of
the learnable layers nearest each exit. Everything here is pure
structure; tensors live in the runtime module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from .documents import ParseError, array, field_names, fields, read_json, write_json
from .dropout import DropoutConfig

LAYER_KINDS = (
    "conv2d",
    "dense",
    "max_pool",
    "avg_pool",
    "relu",
    "softmax",
    "flatten",
    "dropout_point",
)
LEARNABLE_KINDS = ("conv2d", "dense")
POOL_KINDS = ("max_pool", "avg_pool")

_TAIL_MARK = "/tail/"
_GLOBAL_WINDOW = "global"


class ShapeMismatchError(ValueError):
    """Raised when consecutive layers cannot agree on a tensor shape."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a unique id, a kind, and kind-specific parameters."""

    id: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class NetworkSpec:
    """A plain feed-forward chain with a declared input shape."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class ExitSpec:
    """One exit: where it attaches on the trunk and the head it runs.

    attach_after is the id of the trunk layer whose output feeds this
    head (None means the network input itself). exit_index is 1-based
    and ordered from shallow to deep.
    """

    exit_index: int
    attach_after: str | None
    head_layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class MultiExitSpec:
    """A trunk shared by every exit plus the per-exit heads."""

    trunk: NetworkSpec
    exits: tuple[ExitSpec, ...]
    dropout: DropoutConfig | None = None
    mask_file: str | None = None

    @property
    def n_exit(self) -> int:
        return len(self.exits)

    @property
    def dropout_sites(self) -> tuple[tuple[int, str], ...]:
        """(exit_index, dropout layer id) pairs in flow order per exit."""
        sites: list[tuple[int, str]] = []
        for ex in self.exits:
            for layer in ex.head_layers:
                if layer.kind == "dropout_point":
                    sites.append((ex.exit_index, layer.id))
        return tuple(sites)

    @property
    def class_count(self) -> int:
        final = self.exits[-1]
        feature = attach_shape(self, final.attach_after)
        out = infer_shapes(final.head_layers, feature)[-1]
        return int(out[0])


@dataclass(frozen=True)
class Diagnostic:
    """A validation finding naming the offending layer and invariant."""

    code: str
    layer_id: str | None
    message: str

    def __str__(self) -> str:
        where = f" [{self.layer_id}]" if self.layer_id else ""
        return f"{self.code}{where}: {self.message}"


# --------------------------------------------------------------------------
# layer grammar

# kind -> (allowed params, required params); kinds not listed take none.
_PARAMS = {
    "conv2d": (
        ("in_channels", "out_channels", "kernel_h", "kernel_w", "stride", "padding"),
        ("in_channels", "out_channels", "kernel_h", "kernel_w"),
    ),
    "dense": (("in_features", "out_features"), ("in_features", "out_features")),
    "max_pool": (("window", "stride"), ("window",)),
    "avg_pool": (("window", "stride"), ("window",)),
}


def _check_positive_int(name: str, value: Any, layer_id: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParseError(f"layer {layer_id!r}: {name} must be a positive integer")
    return value


def _check_window(value: Any, layer_id: str) -> int | list[int] | str:
    if value == _GLOBAL_WINDOW:
        return _GLOBAL_WINDOW
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, int) and v >= 1 for v in value)
    ):
        return [int(value[0]), int(value[1])]
    raise ParseError(f"layer {layer_id!r}: window must be a positive int, [h, w], or 'global'")


def normalize_layer(layer: LayerSpec) -> LayerSpec:
    """Validate parameters for the layer kind and fill defaults."""
    if layer.kind not in LAYER_KINDS:
        raise ParseError(f"layer {layer.id!r}: unknown kind {layer.kind!r}")
    allowed, required = _PARAMS.get(layer.kind, ((), ()))
    p = dict(fields(layer.params, f"layer {layer.id!r} {layer.kind} param", allowed, required))
    if layer.kind in LEARNABLE_KINDS:
        for name in required:
            _check_positive_int(name, p[name], layer.id)
    if layer.kind == "conv2d":
        p.setdefault("stride", 1)
        p.setdefault("padding", 0)
        _check_positive_int("stride", p["stride"], layer.id)
        if not isinstance(p["padding"], int) or p["padding"] < 0:
            raise ParseError(f"layer {layer.id!r}: padding must be a non-negative integer")
    elif layer.kind in POOL_KINDS:
        p["window"] = _check_window(p["window"], layer.id)
        if "stride" in p:
            _check_positive_int("stride", p["stride"], layer.id)
        elif isinstance(p["window"], int):
            p["stride"] = p["window"]
        else:
            p["stride"] = 1
    return LayerSpec(id=layer.id, kind=layer.kind, params=p)


def parse_layer(doc: Any) -> LayerSpec:
    doc = fields(doc, "layer", field_names(LayerSpec), ("id", "kind"))
    if not isinstance(doc["id"], str) or not doc["id"]:
        raise ParseError("layer id must be a non-empty string")
    return normalize_layer(LayerSpec(id=doc["id"], kind=doc["kind"], params=doc.get("params", {})))


def layer_to_dict(layer: LayerSpec) -> dict[str, Any]:
    out: dict[str, Any] = {"id": layer.id, "kind": layer.kind}
    if layer.params:
        out["params"] = dict(layer.params)
    return out


# --------------------------------------------------------------------------
# shape inference and structural counts


def _pool_window(layer: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    w = layer.params["window"]
    if w == _GLOBAL_WINDOW:
        if len(in_shape) != 3:
            raise ShapeMismatchError(
                f"layer {layer.id!r}: global pooling needs a rank-3 input, got {in_shape}"
            )
        return (in_shape[1], in_shape[2])
    if isinstance(w, int):
        return (w,) if len(in_shape) == 1 else (w, w)
    return tuple(w)


def output_shape(layer: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape produced by one layer, or ShapeMismatchError naming it."""
    kind = layer.kind
    if kind == "dense":
        if len(in_shape) != 1:
            raise ShapeMismatchError(
                f"layer {layer.id!r}: dense expects a rank-1 input, got {in_shape}"
            )
        if in_shape[0] != layer.params["in_features"]:
            raise ShapeMismatchError(
                f"layer {layer.id!r}: expects {layer.params['in_features']} features, got {in_shape[0]}"
            )
        return (layer.params["out_features"],)
    if kind == "conv2d":
        if len(in_shape) != 3:
            raise ShapeMismatchError(
                f"layer {layer.id!r}: conv2d expects a rank-3 input, got {in_shape}"
            )
        cin, h, w = in_shape
        p = layer.params
        if cin != p["in_channels"]:
            raise ShapeMismatchError(
                f"layer {layer.id!r}: expects {p['in_channels']} channels, got {cin}"
            )
        hout = (h + 2 * p["padding"] - p["kernel_h"]) // p["stride"] + 1
        wout = (w + 2 * p["padding"] - p["kernel_w"]) // p["stride"] + 1
        if hout < 1 or wout < 1:
            raise ShapeMismatchError(f"layer {layer.id!r}: kernel does not fit input {in_shape}")
        return (p["out_channels"], hout, wout)
    if kind in POOL_KINDS:
        stride = layer.params["stride"]
        win = _pool_window(layer, in_shape)
        if len(in_shape) == 1:
            f = (in_shape[0] - win[0]) // stride + 1
            if f < 1:
                raise ShapeMismatchError(f"layer {layer.id!r}: window does not fit input {in_shape}")
            return (f,)
        if len(in_shape) == 3:
            c, h, w = in_shape
            hout = (h - win[0]) // stride + 1
            wout = (w - win[1]) // stride + 1
            if hout < 1 or wout < 1:
                raise ShapeMismatchError(f"layer {layer.id!r}: window does not fit input {in_shape}")
            return (c, hout, wout)
        raise ShapeMismatchError(
            f"layer {layer.id!r}: pooling expects rank-1 or rank-3 input, got {in_shape}"
        )
    if kind == "softmax":
        if len(in_shape) != 1:
            raise ShapeMismatchError(
                f"layer {layer.id!r}: softmax expects a rank-1 input, got {in_shape}"
            )
        return in_shape
    if kind == "flatten":
        return (int(math.prod(in_shape)),)
    # relu, dropout_point
    return in_shape


def infer_shapes(
    layers: Sequence[LayerSpec], input_shape: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Output shape after each layer; raises on the first incompatibility."""
    shapes: list[tuple[int, ...]] = []
    cur = tuple(input_shape)
    for layer in layers:
        cur = output_shape(layer, cur)
        shapes.append(cur)
    return shapes


def flops_of(layer: LayerSpec, in_shape: tuple[int, ...]) -> int:
    """FLOPs for one layer at the multiply-accumulate = 2 FLOPs convention.

    conv2d: 2 * Kh * Kw * Cin * Cout * Hout * Wout
    dense:  2 * in_features * out_features
    Pooling, activations, softmax, and dropout count as zero.
    """
    if layer.kind == "dense":
        return 2 * layer.params["in_features"] * layer.params["out_features"]
    if layer.kind == "conv2d":
        p = layer.params
        _, hout, wout = output_shape(layer, in_shape)
        return 2 * p["kernel_h"] * p["kernel_w"] * p["in_channels"] * p["out_channels"] * hout * wout
    return 0


def class_count(net: NetworkSpec) -> int:
    return int(infer_shapes(net.layers, net.input_shape)[-1][0])


def all_layers(me: MultiExitSpec) -> list[LayerSpec]:
    """Trunk layers followed by every head's layers, in exit order."""
    out = list(me.trunk.layers)
    for ex in me.exits:
        out.extend(ex.head_layers)
    return out


def _trunk_index(me: MultiExitSpec) -> dict[str, int]:
    return {layer.id: i for i, layer in enumerate(me.trunk.layers)}


def attach_depth(me: MultiExitSpec, attach_after: str | None) -> int:
    """Trunk position of an attach point; the network input is -1."""
    if attach_after is None:
        return -1
    idx = _trunk_index(me)
    if attach_after not in idx:
        raise ValueError(f"attach point {attach_after!r} is not a trunk layer")
    return idx[attach_after]


def attach_shape(me: MultiExitSpec, attach_after: str | None) -> tuple[int, ...]:
    depth = attach_depth(me, attach_after)
    if depth < 0:
        return me.trunk.input_shape
    return infer_shapes(me.trunk.layers[: depth + 1], me.trunk.input_shape)[-1]


def deepest_attach(me: MultiExitSpec) -> int:
    """Deepest trunk position any exit caches from; the single trunk pass
    only ever needs to run this far."""
    return max(attach_depth(me, ex.attach_after) for ex in me.exits)


# --------------------------------------------------------------------------
# document parsing


def parse_network(doc: Any) -> NetworkSpec:
    if isinstance(doc, Mapping) and {"exits", "dropout", "mask_file"} & set(doc):
        raise ParseError("document describes a multi-exit network; use parse_multi_exit")
    doc = fields(doc, "network", field_names(NetworkSpec), ("input_shape", "layers"))
    shape = tuple(array(doc["input_shape"], "network input_shape"))
    if not shape or not all(isinstance(d, int) and d >= 1 for d in shape):
        raise ParseError("input_shape must be a non-empty list of positive integers")
    if len(shape) not in (1, 3):
        raise ParseError(f"input_shape must be rank 1 or 3, got {shape}")
    layers = tuple(parse_layer(item) for item in array(doc["layers"], "network layers"))
    if not layers:
        raise ParseError("network requires at least one layer")
    seen: set[str] = set()
    for layer in layers:
        if layer.id in seen:
            raise ParseError(f"duplicate layer id {layer.id!r}")
        seen.add(layer.id)
    net = NetworkSpec(input_shape=shape, layers=layers)
    infer_shapes(net.layers, net.input_shape)
    return net


def serialize_network(net: NetworkSpec) -> dict[str, Any]:
    return {
        "input_shape": list(net.input_shape),
        "layers": [layer_to_dict(layer) for layer in net.layers],
    }


def parse_multi_exit(doc: Any) -> MultiExitSpec:
    allowed = ("input_shape", "layers", "exits", "dropout", "mask_file")
    doc = fields(doc, "multi-exit", allowed, ("input_shape", "layers", "exits"))
    if not array(doc["exits"], "multi-exit exits"):
        raise ParseError("multi-exit document requires a non-empty exits list")
    trunk = parse_network({"input_shape": doc["input_shape"], "layers": doc["layers"]})
    exits = []
    for item in doc["exits"]:
        item = fields(item, "exit", field_names(ExitSpec), ("exit_index", "head_layers"))
        head = array(item["head_layers"], "exit head_layers")
        exits.append(
            ExitSpec(
                exit_index=int(item["exit_index"]),
                attach_after=item.get("attach_after"),
                head_layers=tuple(parse_layer(l) for l in head),
            )
        )
    dropout = None
    if doc.get("dropout") is not None:
        dropout = DropoutConfig.from_dict(doc["dropout"])
    me = MultiExitSpec(
        trunk=trunk,
        exits=tuple(exits),
        dropout=dropout,
        mask_file=doc.get("mask_file"),
    )
    problems = validate(me)
    if problems:
        raise ParseError("; ".join(str(p) for p in problems))
    return me


def serialize_multi_exit(me: MultiExitSpec) -> dict[str, Any]:
    doc: dict[str, Any] = serialize_network(me.trunk)
    doc["exits"] = [
        {
            "exit_index": ex.exit_index,
            "attach_after": ex.attach_after,
            "head_layers": [layer_to_dict(l) for l in ex.head_layers],
        }
        for ex in me.exits
    ]
    if me.dropout is not None:
        doc["dropout"] = me.dropout.to_dict()
    if me.mask_file is not None:
        doc["mask_file"] = me.mask_file
    return doc


def load_network(path: str | Path) -> NetworkSpec:
    return parse_network(read_json(path))


def save_network(net: NetworkSpec, path: str | Path) -> None:
    write_json(path, serialize_network(net))


def load_multi_exit(path: str | Path) -> MultiExitSpec:
    return parse_multi_exit(read_json(path))


def save_multi_exit(me: MultiExitSpec, path: str | Path) -> None:
    write_json(path, serialize_multi_exit(me))


# --------------------------------------------------------------------------
# exit placement


# Every added exit's head: global average pool into a dense classifier,
# its widths filled per exit by instantiate_head.
HEAD_TEMPLATE = (
    LayerSpec(id="gap", kind="avg_pool", params={"window": _GLOBAL_WINDOW, "stride": 1}),
    LayerSpec(id="flatten", kind="flatten"),
    LayerSpec(id="fc", kind="dense", params={"in_features": None, "out_features": None}),
    LayerSpec(id="softmax", kind="softmax"),
)


def instantiate_head(
    feature_shape: tuple[int, ...], classes: int, prefix: str
) -> tuple[LayerSpec, ...]:
    """HEAD_TEMPLATE adapted to a concrete block output shape.

    The global pool and flatten are dropped when the incoming feature is
    already rank-1. The dense layer takes the feature width and the class
    count. Raises if the feature cannot reach the dense layer as rank-1.
    """
    layers: list[LayerSpec] = []
    cur = tuple(feature_shape)
    for t in HEAD_TEMPLATE:
        params = dict(t.params)
        if t.kind in ("avg_pool", "flatten") and len(cur) == 1:
            continue
        if t.kind == "dense":
            if len(cur) != 1:
                raise ValueError(
                    f"head template cannot be shape-adapted: dense {t.id!r} fed rank-{len(cur)} "
                    f"feature {cur}; add a flatten or pooling stage"
                )
            params.update(in_features=int(cur[0]), out_features=int(classes))
        layer = normalize_layer(LayerSpec(id=f"{prefix}/{t.id}", kind=t.kind, params=params))
        cur = output_shape(layer, cur)
        layers.append(layer)
    return tuple(layers)


def terminal_head_split(net: NetworkSpec) -> tuple[tuple[LayerSpec, ...], tuple[LayerSpec, ...]]:
    """Split a plain network into (trunk, original classifier head).

    The classifier head starts at the last learnable layer and runs to the
    terminal softmax.
    """
    if net.layers[-1].kind != "softmax":
        raise ValueError("network must end in a softmax classifier")
    last_learnable = None
    for i, layer in enumerate(net.layers):
        if layer.kind in LEARNABLE_KINDS:
            last_learnable = i
    if last_learnable is None:
        raise ValueError("network has no learnable layers")
    return net.layers[:last_learnable], net.layers[last_learnable:]


def place_exits(net: NetworkSpec) -> MultiExitSpec:
    """Attach one HEAD_TEMPLATE exit after every pooling layer and keep
    the original classifier as the final exit.

    A pooling layer that directly feeds the original classifier would
    duplicate the final exit's attach point; such a layer gets no extra
    head so attach depths stay strictly increasing.
    """
    trunk_layers, original_head = terminal_head_split(net)
    classes = class_count(net)
    trunk = NetworkSpec(input_shape=net.input_shape, layers=trunk_layers)
    shapes = infer_shapes(trunk_layers, net.input_shape)
    final_attach = trunk_layers[-1].id if trunk_layers else None

    exits: list[ExitSpec] = []
    for i, layer in enumerate(trunk_layers):
        if layer.kind not in POOL_KINDS:
            continue
        if layer.id == final_attach:
            continue
        k = len(exits) + 1
        head = instantiate_head(shapes[i], classes, prefix=f"exit{k}")
        exits.append(ExitSpec(exit_index=k, attach_after=layer.id, head_layers=head))
    exits.append(
        ExitSpec(
            exit_index=len(exits) + 1,
            attach_after=final_attach,
            head_layers=original_head,
        )
    )
    return MultiExitSpec(trunk=trunk, exits=tuple(exits))


# --------------------------------------------------------------------------
# dropout insertion


def _strip_dropout(me: MultiExitSpec) -> MultiExitSpec:
    """Undo a previous insert_dropout: remove dropout points and return
    spilled trunk copies to their attach points."""
    exits = []
    for ex in me.exits:
        head = [l for l in ex.head_layers if l.kind != "dropout_point"]
        attach = ex.attach_after
        tail = [l for l in head if _TAIL_MARK in l.id]
        if tail:
            attach = tail[-1].id.split(_TAIL_MARK, 1)[1]
            head = [l for l in head if _TAIL_MARK not in l.id]
        exits.append(replace(ex, attach_after=attach, head_layers=tuple(head)))
    return replace(me, exits=tuple(exits), dropout=None)


def insert_dropout(me: MultiExitSpec, cfg: DropoutConfig, depth: int) -> MultiExitSpec:
    """Place a dropout point in front of each of the `depth` learnable
    layers nearest every exit, walking from the exit toward the input.

    Sites beyond the head spill into the trunk segment feeding that exit:
    the affected trunk layers are copied into the head (ids prefixed with
    the exit name) and the attach point moves up to the copied segment's
    input, so the shared trunk itself stays deterministic. Re-running on
    an already transformed spec first strips the previous insertion, which
    makes the operation idempotent for a fixed (cfg, depth).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1: a Bayesian exit needs at least one dropout layer")
    me = _strip_dropout(me)

    new_exits: list[ExitSpec] = []
    for ex in me.exits:
        head = list(ex.head_layers)
        head_learnables = [i for i, l in enumerate(head) if l.kind in LEARNABLE_KINDS]
        attach = attach_depth(me, ex.attach_after)
        trunk_learnables = [
            i for i in range(attach, -1, -1) if me.trunk.layers[i].kind in LEARNABLE_KINDS
        ]
        available = len(head_learnables) + len(trunk_learnables)
        if depth > available:
            raise ValueError(
                f"exit {ex.exit_index}: depth {depth} exceeds the {available} learnable "
                f"layers reachable from this exit"
            )
        take_head = min(depth, len(head_learnables))
        take_trunk = depth - take_head

        # Sites inside the head: in front of the take_head learnables
        # closest to the exit, inserted deepest-first so indices hold.
        site_positions = head_learnables[len(head_learnables) - take_head :]
        for pos in reversed(site_positions):
            head.insert(pos, LayerSpec(id="", kind="dropout_point"))

        new_attach = ex.attach_after
        if take_trunk:
            spill = trunk_learnables[:take_trunk]  # deepest first
            shallowest = spill[-1]
            copied: list[LayerSpec] = []
            for i in range(shallowest, attach + 1):
                src = me.trunk.layers[i]
                if i in spill:
                    copied.append(LayerSpec(id="", kind="dropout_point"))
                copied.append(
                    LayerSpec(
                        id=f"exit{ex.exit_index}{_TAIL_MARK}{src.id}",
                        kind=src.kind,
                        params=dict(src.params),
                    )
                )
            head = copied + head
            new_attach = me.trunk.layers[shallowest - 1].id if shallowest > 0 else None

        # Number the dropout points in flow order.
        numbered: list[LayerSpec] = []
        n = 0
        for layer in head:
            if layer.kind == "dropout_point":
                numbered.append(LayerSpec(id=f"exit{ex.exit_index}/drop{n}", kind="dropout_point"))
                n += 1
            else:
                numbered.append(layer)
        new_exits.append(replace(ex, attach_after=new_attach, head_layers=tuple(numbered)))

    return replace(me, exits=tuple(new_exits), dropout=cfg)


# --------------------------------------------------------------------------
# validation and channel scaling


def validate(me: MultiExitSpec) -> list[Diagnostic]:
    """Structural diagnostics; an empty list means the network is coherent."""
    problems: list[Diagnostic] = []

    seen: dict[str, str] = {}
    for layer in all_layers(me):
        if layer.id in seen:
            problems.append(
                Diagnostic("duplicate-id", layer.id, f"id also used by a {seen[layer.id]} layer")
            )
        seen[layer.id] = layer.kind

    try:
        infer_shapes(me.trunk.layers, me.trunk.input_shape)
    except ShapeMismatchError as err:
        problems.append(Diagnostic("trunk-shape", None, str(err)))
        return problems

    if not me.exits:
        problems.append(Diagnostic("no-exits", None, "at least one exit is required"))
        return problems

    trunk_pos = _trunk_index(me)
    depths = []
    for ex in me.exits:
        if ex.attach_after is not None and ex.attach_after not in trunk_pos:
            problems.append(
                Diagnostic(
                    "bad-attach", ex.attach_after, f"exit {ex.exit_index} attaches to a missing layer"
                )
            )
            return problems
        depths.append(attach_depth(me, ex.attach_after))
    for a, b, ex in zip(depths, depths[1:], me.exits[1:]):
        if a >= b:
            problems.append(
                Diagnostic(
                    "exit-order",
                    ex.attach_after,
                    f"exit {ex.exit_index} does not attach strictly deeper than its predecessor",
                )
            )
    if [ex.exit_index for ex in me.exits] != list(range(1, len(me.exits) + 1)):
        problems.append(Diagnostic("exit-index", None, "exit_index must run 1..N in order"))

    classes: int | None = None
    for ex in me.exits:
        try:
            feature = attach_shape(me, ex.attach_after)
            out = infer_shapes(ex.head_layers, feature)[-1]
        except (ShapeMismatchError, ValueError) as err:
            problems.append(Diagnostic("head-shape", ex.attach_after, str(err)))
            continue
        if not ex.head_layers or ex.head_layers[-1].kind != "softmax":
            problems.append(
                Diagnostic(
                    "head-terminal",
                    ex.head_layers[-1].id if ex.head_layers else None,
                    f"exit {ex.exit_index} head must end in softmax",
                )
            )
        if classes is None:
            classes = int(out[0])
        elif int(out[0]) != classes:
            problems.append(
                Diagnostic(
                    "class-count",
                    ex.attach_after,
                    f"exit {ex.exit_index} yields {int(out[0])} classes, expected {classes}",
                )
            )

    if me.dropout is not None:
        shallowest = depths[0]
        for i, layer in enumerate(me.trunk.layers):
            if layer.kind != "dropout_point":
                continue
            if i < shallowest:
                problems.append(
                    Diagnostic(
                        "partial-dropout",
                        layer.id,
                        "dropout site precedes the shallowest exit's attach point",
                    )
                )
            else:
                problems.append(
                    Diagnostic(
                        "trunk-dropout",
                        layer.id,
                        "trunk must stay deterministic; move dropout into an exit head",
                    )
                )
        for ex in me.exits:
            if not any(l.kind == "dropout_point" for l in ex.head_layers):
                problems.append(
                    Diagnostic(
                        "exit-no-dropout",
                        ex.attach_after,
                        f"exit {ex.exit_index} has no dropout site",
                    )
                )
    return problems


def scale_channels(net: NetworkSpec, fraction: float) -> NetworkSpec:
    """Shrink layer widths to a fraction of the original network.

    Convolution output channels and hidden dense widths are rounded to
    round(width * fraction); the final classifier width is preserved.
    Raises if any width reaches zero.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"channel fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return net
    learnables = [i for i, l in enumerate(net.layers) if l.kind in LEARNABLE_KINDS]
    last = learnables[-1] if learnables else -1

    out_layers: list[LayerSpec] = []
    cur = net.input_shape
    for i, layer in enumerate(net.layers):
        params = dict(layer.params)
        if layer.kind == "conv2d":
            params["in_channels"] = int(cur[0])
            if i != last:
                width = int(round(params["out_channels"] * fraction))
                if width < 1:
                    raise ValueError(
                        f"layer {layer.id!r}: channel fraction {fraction} yields zero width"
                    )
                params["out_channels"] = width
        elif layer.kind == "dense":
            params["in_features"] = int(cur[0])
            if i != last:
                width = int(round(params["out_features"] * fraction))
                if width < 1:
                    raise ValueError(
                        f"layer {layer.id!r}: channel fraction {fraction} yields zero width"
                    )
                params["out_features"] = width
        new = LayerSpec(id=layer.id, kind=layer.kind, params=params)
        cur = output_shape(new, cur)
        out_layers.append(new)
    return NetworkSpec(input_shape=net.input_shape, layers=tuple(out_layers))


def keep_exits(me: MultiExitSpec, n_exit: int) -> MultiExitSpec:
    """Keep the final exit plus the (n_exit - 1) deepest early exits,
    renumbered 1..n_exit."""
    if not 1 <= n_exit <= me.n_exit:
        raise ValueError(f"n_exit must be in [1, {me.n_exit}], got {n_exit}")
    kept = list(me.exits[me.n_exit - n_exit :])
    exits = tuple(replace(ex, exit_index=i + 1) for i, ex in enumerate(kept))
    return replace(me, exits=exits)
