"""The benchmark's three seeded workloads and their output oracles.

Each workload builds its inputs from the seed during set-up (which ends
with one untimed warm-up operation) and then runs operation cycles. A
cycle returns its timings; every output it produces is checked, and a
check that fails counts the operation it checked as failed.

  mlp_mcd     head-bound: the 16-feature MLP (3 exits) with channel MC
              dropout, 8 passes per exit, trained during set-up.
  conv_masks  trunk-bound: a 3x32x32 conv net (4 exits) with masksembles
              dropout, 4 passes per exit, initialised weights.
  sweep       train-bound: the README walkthrough through `cli.main`
              (six verbs, an 8-point explore), then the same scoring
              phases on the network the pipeline trained.

The program is only ever reached through module attributes
(`inference.predict`, not a name imported from it), so a tracer that
rebinds those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mcexit import cli, datasets, dropout, explorer, inference, metrics, netspec, runtime, train

Q8 = runtime.QFormat(total_bits=8, integer_bits=3)
THRESHOLD = 0.9
EXIT_MODE = "ensemble_so_far"
ORACLE_TRIPLES = 3  # cached-vs-uncached samples rebuilt per cycle
Q8_SAMPLES = 3  # 8-bit rows re-derived from predict per cycle
COST_INPUTS = 16  # inputs timed for the cached/naive wall ratio
TRAIN_SEED = -1  # training data of mlp_mcd and sweep; run seeds are >= 0, so never the same draw

clock = time.perf_counter


def mlp_doc(dim: int = 16, classes: int = 3) -> dict:
    """The README / test-suite MLP: two pooling stages, so three exits."""
    return {
        "input_shape": [dim],
        "layers": [
            {"id": "d1", "kind": "dense", "params": {"in_features": dim, "out_features": 24}},
            {"id": "r1", "kind": "relu"},
            {"id": "p1", "kind": "avg_pool", "params": {"window": 2}},
            {"id": "d2", "kind": "dense", "params": {"in_features": 12, "out_features": 24}},
            {"id": "r2", "kind": "relu"},
            {"id": "p2", "kind": "avg_pool", "params": {"window": 2}},
            {"id": "d3", "kind": "dense", "params": {"in_features": 12, "out_features": 16}},
            {"id": "r3", "kind": "relu"},
            {"id": "fc", "kind": "dense", "params": {"in_features": 16, "out_features": classes}},
            {"id": "sm", "kind": "softmax"},
        ],
    }


def conv_doc() -> dict:
    """3x32x32 input, three conv(3x3, pad 1)+relu+max_pool stages of
    16/32/32 channels, then dense 512->64->10: four exits, alpha ~ 6e-4."""
    layers: list[dict] = []
    cin = 3
    for i, cout in enumerate((16, 32, 32), start=1):
        layers += [
            {
                "id": f"conv{i}",
                "kind": "conv2d",
                "params": {
                    "in_channels": cin,
                    "out_channels": cout,
                    "kernel_h": 3,
                    "kernel_w": 3,
                    "padding": 1,
                },
            },
            {"id": f"relu{i}", "kind": "relu"},
            {"id": f"pool{i}", "kind": "max_pool", "params": {"window": 2}},
        ]
        cin = cout
    layers += [
        {"id": "flat", "kind": "flatten"},
        {"id": "fc1", "kind": "dense", "params": {"in_features": 512, "out_features": 64}},
        {"id": "relu4", "kind": "relu"},
        {"id": "fc2", "kind": "dense", "params": {"in_features": 64, "out_features": 10}},
        {"id": "sm", "kind": "softmax"},
    ]
    return {"input_shape": [3, 32, 32], "layers": layers}


class Tally:
    """Operations attempted and failed, per phase, with failure messages."""

    def __init__(self) -> None:
        self.phases: dict[str, list[int]] = {}
        self.messages: list[str] = []

    def attempt(self, phase: str, n: int = 1) -> None:
        self.phases.setdefault(phase, [0, 0])[0] += n

    def fail(self, phase: str, message: str) -> None:
        self.phases.setdefault(phase, [0, 0])[1] += 1
        if len(self.messages) < 20:
            self.messages.append(f"{phase}: {message}")

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


@dataclass
class Model:
    """A network, its weights and the inputs the scoring phases run on.

    The inputs are cut into chunks of `chunk`; chunk c is one
    `ensemble_dataset` call with base seed `seed + c`, and `seeds` holds
    the per-input sampling seeds that call derives, in input order. Phases
    1-3 score the first `scored` inputs (all by default); predict runs on
    every input.
    """

    me: netspec.MultiExitSpec
    weights: runtime.WeightStore
    inputs: np.ndarray
    n_pass: int
    seed: int
    chunk: int
    scored: int = 0

    def __post_init__(self) -> None:
        n = len(self.inputs)
        self.scored = min(self.scored or n, n)
        self.chunks = [(a, min(a + self.chunk, n)) for a in range(0, n, self.chunk)]
        self.scored_chunks = [(a, b) for a, b in self.chunks if b <= self.scored]
        self.seeds = [
            s
            for c, (a, b) in enumerate(self.chunks)
            for s in inference.dataset_seeds(self.seed + c, b - a)
        ]

    def head(self, count: int) -> "Model":
        return dataclasses.replace(self, inputs=self.inputs[:count])


def uncached_sample(m: Model, i: int, exit_index: int, pass_index: int) -> np.ndarray:
    """One (exit, pass) probability vector rebuilt without the trunk
    cache, from `runtime.forward` and the dropout layer functions."""
    me, cfg = m.me, m.me.dropout
    ex = me.exits[exit_index - 1]
    h = np.asarray(m.inputs[i], dtype=np.float32)
    for layer in me.trunk.layers[: netspec.attach_depth(me, ex.attach_after) + 1]:
        h = runtime.forward(layer, h, m.weights)
    for layer in ex.head_layers:
        if layer.kind != "dropout_point":
            h = runtime.forward(layer, h, m.weights)
        elif cfg.kind == "mcd":
            stream = dropout.RngStream(m.seeds[i], pass_index, layer.id)
            h = dropout.mcd_forward(h, cfg.keep_rate, cfg.granularity, stream, cfg.inverted)
        else:
            width = inference.site_feature_count(me, exit_index, layer.id)
            masks = dropout.generate_masks(width, cfg.num_masks, cfg.scale)
            h = dropout.masksembles_forward(h, pass_index, masks)
    return np.asarray(h, dtype=np.float64)


def score(m: Model, tally: Tally | None, cycle: int = 0, quiet=contextlib.nullcontext) -> tuple[dict, str]:
    """The four scoring phases over the inputs of `m`: full ensemble at
    float and at 8 bits, confidence early exit, single-input predict.

    Returns the timings (per chunk for phases 1-2, per call for early exit
    and predict)
    and a digest of every output. With a tally, the outputs are checked
    inside `quiet()` and every operation is counted.
    """
    me, w, n_pass = m.me, m.weights, m.n_pass
    chunk_s: dict[str, list[float]] = {"ensemble": [], "ensemble_q8": [], "early_exit": []}
    ens, ens_q8, decisions = [], [], []
    for c, (a, b) in enumerate(m.scored_chunks):
        t = clock()
        ens.append(inference.ensemble_dataset(me, w, m.inputs[a:b], n_pass, m.seed + c))
        chunk_s["ensemble"].append(clock() - t)
    for c, (a, b) in enumerate(m.scored_chunks):
        t = clock()
        ens_q8.append(inference.ensemble_dataset(me, w, m.inputs[a:b], n_pass, m.seed + c, Q8))
        chunk_s["ensemble_q8"].append(clock() - t)
    for i in range(m.scored):
        t = clock()
        decisions.append(inference.confidence_exit(me, m.inputs[i], THRESHOLD, EXIT_MODE, w, n_pass, m.seeds[i]))
        chunk_s["early_exit"].append(clock() - t)
    preds, latency = [], []
    for x, s in zip(m.inputs, m.seeds):
        t = clock()
        preds.append(inference.predict(me, x, n_pass, w, s))
        latency.append(clock() - t)
    ens, ens_q8 = np.concatenate(ens), np.concatenate(ens_q8)

    early = np.asarray([d.probs for d in decisions])
    taken = np.asarray([d.exit_taken for d in decisions], dtype=np.int64)
    samples = np.stack([p.samples for p in preds])
    timings = {f"{phase}_s": times for phase, times in chunk_s.items()}
    timings.update(inputs=m.scored, predict_latency_s=latency, exits_taken=taken)
    out_digest = digest(ens.tobytes(), ens_q8.tobytes(), early.tobytes(), taken.tobytes(), samples.tobytes())
    if tally is not None:
        with quiet():
            check_scores(m, tally, cycle, ens, ens_q8, decisions, preds)
    return timings, out_digest


def threshold_exit(p: inference.PredictionSet) -> int:
    """The exit early exit must stop at, from the full samples: the first
    whose running ensemble reaches THRESHOLD, else the last."""
    for k in range(1, p.n_exit):
        if float(inference.ensemble(p, k).max()) >= THRESHOLD:
            return k
    return p.n_exit


def check_scores(m, tally, cycle, ens, ens_q8, decisions, preds) -> None:
    n = m.scored
    tally.attempt("ensemble_dataset", 2 * len(m.scored_chunks))
    tally.attempt("confidence_exit", n)
    tally.attempt("predict", len(preds))
    for name, rows in (("ensemble_dataset", ens), ("ensemble_dataset", ens_q8)):
        if rows.shape != (n, m.me.class_count) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-6):
            tally.fail(name, "rows do not all sum to 1 within 1e-6")
    for i, (d, p) in enumerate(zip(decisions, preds)):
        if not np.array_equal(ens[i], inference.ensemble(p)):
            tally.fail("ensemble_dataset", f"row {i} differs from ensemble(predict)")
        if abs(float(d.probs.sum()) - 1.0) > 1e-6:
            tally.fail("confidence_exit", f"input {i}: probabilities do not sum to 1")
        if not np.array_equal(d.probs, inference.ensemble(p, d.exit_taken)):
            tally.fail("confidence_exit", f"input {i}: differs from the first {d.exit_taken} exits of predict")
        if d.exit_taken != threshold_exit(p):
            tally.fail("confidence_exit", f"input {i}: stopped at exit {d.exit_taken}, the rule picks {threshold_exit(p)}")
    # a few 8-bit rows and cached samples re-derived independently, rotating by cycle
    n_exit, n_pass = m.me.n_exit, m.n_pass
    for j in range(Q8_SAMPLES):
        i = (cycle * Q8_SAMPLES + j) * 7919 % n
        ref = inference.ensemble(inference.predict(m.me, m.inputs[i], n_pass, m.weights, m.seeds[i], Q8))
        if not np.array_equal(ens_q8[i], ref):
            tally.fail("ensemble_dataset", f"8-bit row {i} differs from ensemble(predict)")
    for j in range(ORACLE_TRIPLES):
        k = cycle * ORACLE_TRIPLES + j
        i, e, p = k * 7919 % len(preds), 1 + k % n_exit, k * 31 % n_pass
        if not np.array_equal(preds[i].samples[e - 1, p], uncached_sample(m, i, e, p)):
            tally.fail("predict", f"input {i} exit {e} pass {p}: cached != uncached")


def model_costs(m: Model) -> dict[str, float]:
    """Executed vs modelled FLOPs of one predict, and the measured wall
    ratio of the trunk-cached path to a naive rerun (which runs the trunk
    again for every exit and pass, then that head once; its dropout keying
    differs, so only its time is used)."""
    me, n_exit = m.me, m.me.n_exit
    counter = runtime.FlopCounter()
    inference.predict(me, m.inputs[0], m.n_pass, m.weights, m.seeds[0], flop_counter=counter)
    flops = metrics.count_flops(me)
    n_sample = n_exit * m.n_pass
    modelled = metrics.cost_multi_exit(flops, n_sample, n_exit)

    def naive(x, s):
        for k in range(1, n_exit + 1):
            for p in range(m.n_pass):
                cached = inference.run_trunk(me, x, m.weights)
                inference.run_exit_samples(cached, me, k, 1, m.weights, s + p)

    ratios = []
    for _ in range(3):
        cached_s = naive_s = 0.0
        for x, s in list(zip(m.inputs, m.seeds))[:COST_INPUTS]:
            a = clock()
            inference.predict(me, x, m.n_pass, m.weights, s)
            b = clock()
            naive(x, s)
            c = clock()
            cached_s += b - a
            naive_s += c - b
        ratios.append(cached_s / naive_s)
    return {
        "runtime.flops_executed": counter.total,
        "metrics.flops_modelled": modelled,
        "metrics.flops_fraction": modelled / metrics.cost_single_exit(flops, n_sample),
        "metrics.reduction_rate": metrics.reduction_rate(flops.alpha, n_sample, n_exit),
        "inference.cache_wall_ratio": float(np.median(ratios)),
    }


class ScoringWorkload:
    """A fixed model whose four scoring phases make up one cycle."""

    name = ""
    points_failed = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.quiet = contextlib.nullcontext  # a traced run sets this to pause the tracer
        self.model: Model | None = None
        self.first_digest: str | None = None

    def build(self) -> Model:
        raise NotImplementedError

    def setup(self) -> None:
        self.model = self.build()
        score(self.model.head(4), None)  # warm-up operation

    def cycle(self, tally: Tally, index: int) -> dict:
        """One pass over every timed unit, in the same order every cycle:
        the chunks of phases 1-2, the early-exit calls, then the predict
        calls."""
        timings, out_digest = score(self.model, tally, index, self.quiet)
        self.check_repeat(tally, out_digest)
        scoring = timings["ensemble_s"] + timings["ensemble_q8_s"] + timings["early_exit_s"]
        timings["pipeline_units_s"] = scoring + timings["predict_latency_s"]
        timings["points"] = 3
        timings["points_units_s"] = scoring
        timings["digest"] = out_digest
        return timings

    def check_repeat(self, tally: Tally, out_digest: str) -> None:
        if self.first_digest is None:
            self.first_digest = out_digest
        elif out_digest != self.first_digest:
            tally.fail("repeat", "outputs differ from the first cycle's")

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class MlpMcd(ScoringWorkload):
    name = "mlp_mcd"

    def build(self) -> Model:
        me = netspec.place_exits(netspec.parse_network(mlp_doc()))
        me = netspec.insert_dropout(me, dropout.DropoutConfig(kind="mcd", keep_rate=0.75, seed=7), 1)
        # Overlapping blobs, so early exit stops at every depth. The trained
        # model is the same for every seed and only the held-out inputs are
        # drawn from it: the exit-depth mix, and with it the work per input,
        # then varies little from seed to seed.
        blobs = dict(classes=3, dim=16, radius=2.0, spread=1.2)
        train_set = datasets.make_blobs(count=300, seed=TRAIN_SEED, **blobs)
        data = datasets.make_blobs(count=600, seed=self.seed, **blobs)
        _, held_out = datasets.train_test_split(data, 0.5, seed=self.seed)
        weights = train.train_toy(me, train_set, train.TrainConfig(lr=0.3, epochs=60, batch=32, seed=3))
        # 150 inputs scored, 300 for predict latency: short cycles, so
        # many repeats of every timed unit in a run. Chunks of 5 keep an
        # 8-bit chunk near 8 ms, mostly timed in one host state.
        return Model(me, weights, held_out.features, n_pass=8, seed=self.seed, chunk=5, scored=150)


class ConvMasks(ScoringWorkload):
    name = "conv_masks"

    def build(self) -> Model:
        s = self.seed
        me = netspec.place_exits(netspec.parse_network(conv_doc()))
        cfg = dropout.DropoutConfig(kind="masksembles", num_masks=4, scale=2.0, seed=s)
        me = netspec.insert_dropout(me, cfg, 1)
        weights = runtime.init_weights(netspec.all_layers(me), s + 1)  # the trainer rejects conv
        noise = datasets.NoiseSpec(mean=0.0, std=1.0, count=200, seed=s + 2)
        inputs = datasets.gaussian_inputs(noise, (3, 32, 32))
        # 48 inputs scored, 200 for predict latency: more cycles, so more
        # repeats; chunks of 2 keep a chunk near 6 ms
        return Model(me, weights, inputs, n_pass=4, seed=s + 3, chunk=2, scored=48)


class Sweep(ScoringWorkload):
    """The README walkthrough, verb by verb, in a fresh directory per cycle."""

    name = "sweep"
    POINTS = 8
    first_files: dict[str, str] | None = None

    def verbs(self, explore: bool = True) -> list[tuple[str, list[str]]]:
        s = str(self.seed)
        spec = ["--spec", "multi_exit.json"]
        # train runs 40 epochs, not the README's 120: short units and more
        # cycles per run keep the verb times steady. It trains on the same
        # data for every seed, so the trained network is the same too and
        # the early-exit depth mix moves only with the scored inputs.
        out = [
            ("transform", ["--network", "network.json", "--out", "multi_exit.json", "--rate", "0.25", "--seed", "7"]),
            ("train", [*spec, "--synth", "3,16,90", f"--data-seed={TRAIN_SEED}", "--epochs", "40", "--seed", "1", "--out", "weights.json"]),
            ("evaluate", [*spec, "--weights", "weights.json", "--synth", "3,16,90", "--data-seed", s, "--n-pass", "4", "--seed", s, "--out", "report.json"]),
            ("map", [*spec, "--n-sample", "12", "--out", "mapping.json", "--pareto", "pareto.json"]),
            ("emit", [*spec, "--n-sample", "12", "--engines", "4", "--metrics", "report.json", "--bits", "8", "--out", "plan.json", "--report", "plan.txt"]),
            ("explore", ["--config", "explore.json", "--out", "sweep", "--jobs", "1"]),
        ]
        return [(verb, [verb, *argv]) for verb, argv in out if explore or verb != "explore"]

    def explore_config(self) -> dict:
        return {
            "network": "network.json",
            "dataset": {"blobs": {"count": 90, "classes": 3, "dim": 16, "seed": self.seed}},
            "grids": {
                "mcd_rates": [0.25],
                "masksembles_scales": [3],
                "n_exits": [3],
                "n_passes": [4],
                "bitwidths": [None, 8],
                "thresholds": [None, 0.9],
            },
            "constraints": {"min_accuracy": 0.9},
            "priority": {"metrics": ["accuracy", "ece", "flops"], "tolerances": {"accuracy": 0.002}},
            # 8 points at 10 epochs and 32 noise inputs, not 16 points at 120
            # epochs and 64: the sweep must repeat often enough in a run for
            # its best-of times to be steady
            "settings": {"epochs": 10},
            "noise_count": 32,
            "seed": self.seed,
        }

    def pipeline(
        self, directory: Path, tally: Tally | None, explore: bool = True
    ) -> tuple[dict[str, float], list[float]]:
        """Run the verbs in `directory`, so file paths in the outputs stay
        relative. Returns each verb's time and each explore point's time;
        the points are timed at `explorer.evaluate_design_point`, where
        `explorer.explore` looks it up."""
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        (directory / "network.json").write_text(json.dumps(mlp_doc(), indent=2) + "\n")
        (directory / "explore.json").write_text(json.dumps(self.explore_config(), indent=2) + "\n")
        times, points = {}, []
        evaluate = explorer.evaluate_design_point

        def timed_point(*args, **kwargs):
            a = clock()
            try:
                return evaluate(*args, **kwargs)
            finally:
                points.append(clock() - a)

        here = os.getcwd()
        os.chdir(directory)
        explorer.evaluate_design_point = timed_point
        try:
            for verb, argv in self.verbs(explore):
                sink = io.StringIO()
                a = clock()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
                times[verb] = clock() - a
                if tally is not None:
                    tally.attempt(verb)
                    if code != 0:
                        tally.fail(verb, f"exit code {code}: {sink.getvalue()[-300:]}")
        finally:
            explorer.evaluate_design_point = evaluate
            os.chdir(here)
        return times, points

    def trained_model(self, directory: Path) -> Model:
        me = netspec.load_multi_exit(directory / "multi_exit.json")
        weights = runtime.load_weights(directory / "weights.json")
        # fresh points from the training distribution, not the 90 it was
        # trained on. 96 are scored: with 48, the share of inputs that stop
        # at exit 1, and with it the early-exit work per input, ranged from
        # 71% to 98% between seeds.
        data = datasets.make_blobs(count=200, classes=3, dim=16, seed=self.seed + 1)
        return Model(me, weights, data.features, n_pass=4, seed=self.seed, chunk=8, scored=96)

    def setup(self) -> None:
        warm = self.workdir / "warmup"
        self.pipeline(warm, None, explore=False)  # warm-up operation
        score(self.trained_model(warm).head(4), None)

    def cycle(self, tally: Tally, index: int) -> dict:
        directory = self.workdir / "cycle"
        times, points = self.pipeline(directory, tally)
        self.model = self.trained_model(directory)
        timings, scores_digest = score(self.model, tally, index, self.quiet)
        self.check_repeat(tally, scores_digest)
        files = self.check_files(directory, tally)
        # the six verbs only, with explore split into its points and the rest
        explore_units = points + [times["explore"] - sum(points)]
        timings["pipeline_units_s"] = [t for verb, t in times.items() if verb != "explore"] + explore_units
        timings["points"] = self.POINTS
        timings["points_units_s"] = explore_units
        timings["verbs_s"] = times
        timings["digest"] = digest(scores_digest.encode(), *(f"{k}={v}".encode() for k, v in sorted(files.items())))
        return timings

    def check_files(self, directory: Path, tally: Tally) -> dict[str, str]:
        rows = []
        ledger = directory / "sweep" / "results.csv"
        if ledger.exists():
            with open(ledger, newline="") as fh:
                rows = list(csv.DictReader(fh))
        tally.attempt("ledger_row", self.POINTS)
        bad = [r for r in rows if r.get("status") != "ok"]
        for r in bad:
            tally.fail("ledger_row", f"point failed: {r.get('error')}")
        for _ in range(self.POINTS - len(rows)):
            tally.fail("ledger_row", "missing ledger row")
        files = {
            str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*"))
            if p.is_file()
        }
        if self.first_files is None:
            self.first_files = files
        elif files != self.first_files:
            changed = sorted(k for k in set(files) | set(self.first_files) if files.get(k) != self.first_files.get(k))
            tally.fail("files", f"output files differ from the first cycle's: {changed}")
        self.points_failed = len(bad) + max(0, self.POINTS - len(rows))
        return files


WORKLOADS = {w.name: w for w in (MlpMcd, ConvMasks, Sweep)}
