"""Closed-loop workloads, correctness gates and metrics of the pndnet benchmark.

One client in one process: every call waits for the previous one. Each run
writes a seeded blob corpus into the checkout's ``.bench_build/`` directory,
runs one untimed warm-up round, and then repeats rounds, each after a few
timed set-ups, until the measured time is used up. A round trains a freshly
initialised model with ``train_model``, saves and reloads its checkpoint,
runs ``evaluate_model`` on the test images and then the ``pndnet predict``
loop (read, eval preprocess, ``predict_probabilities``) over them.

Every timed sample is scaled to a fixed machine speed by ``Pace``: a frozen
reference kernel is timed right before and right after it, and inside it
between model forwards.

Every call into pndnet goes through a module attribute (``tr.train_model``,
not an imported name), so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pndnet  # noqa: F401  (loads every submodule the tracer patches)
from tracing import GRAD, STAGE, Tracer, traced

T = importlib.import_module("pndnet.tensor")
ck = importlib.import_module("pndnet.checkpoint")
data = importlib.import_module("pndnet.data")
graph = importlib.import_module("pndnet.graph")
imageio = importlib.import_module("pndnet.imageio")
md = importlib.import_module("pndnet.model")
synthetic = importlib.import_module("pndnet.synthetic")
tr = importlib.import_module("pndnet.train")
BackboneConfig = importlib.import_module("pndnet.backbone").BackboneConfig

SETUPS_PER_ROUND = 4
# the reference kernel's time at full speed on the machine the README's
# reference numbers come from; scaled timings read as seconds on that machine
REFERENCE_S = 0.005
# a reference reading this recent still describes the machine at a sample's start
FRESH_S = 1e-3
# least time between readings inside a sample: about one per full-geometry
# forward, and a 2 % cost
INNER_S = 0.25
PROB_SUM_TOLERANCE = 1e-5
# share of the traced wall time, reference kernels excluded, that may fall
# outside every pndnet span: the benchmark's own loop, clock reads and gates
TRACE_RESIDUAL = 0.05
N_CLASSES = 4


@dataclass(frozen=True)
class Workload:
    geometry: str          # "full": paper protocol; "tiny": tests/conftest.py
    image_px: int          # side of the generated square images
    train_images: int      # written, and trained on per round with batch size 12
    epochs: int
    test_images: int       # written, and per round evaluated, then predicted, one by one


WORKLOADS = {
    "full-train": Workload("full", 256, train_images=12, epochs=1, test_images=4),
    "tiny-train": Workload("tiny", 64, train_images=16, epochs=4, test_images=8),
}


def model_config(geometry: str):
    if geometry == "full":
        return md.ModelConfig()
    return md.ModelConfig(image_size=32, resize_size=36,
                          backbone=BackboneConfig(channels=(8, 16), out_channels=32))


def expected_propagation_macs(cfg) -> int:
    """Multiply-adds of one forward's GCN stack, from the config alone."""
    count = graph.rank1_mac_count if cfg.use_rank1 else graph.dense_mac_count
    c = cfg.backbone.out_channels
    width = cfg.gcn_width if cfg.gcn_width is not None else c
    total = 0
    for _ in range(cfg.gcn_layers):
        total += count(cfg.node_count, c, width)
        c = width
    return total


class Ledger:
    """Operations attempted and failed; a failed gate counts as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a benchmark run must finish and report the failure
            self.failed += 1
            print(f"perfbench: {what} raised", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, ok: bool, message: str):
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {message}", file=sys.stderr)


@dataclass(frozen=True)
class Sample:
    wall: float     # seconds as measured
    scaled: float   # seconds at the reference speed

    def __truediv__(self, n: int) -> Sample:
        return Sample(self.wall / n, self.scaled / n)


class Pace:
    """Scales each timed sample to the speed at which the machine runs a frozen
    reference kernel in ``REFERENCE_S``.

    A shared virtual machine switches, for seconds to minutes at a time,
    between full speed and about 1.5 to 1.8 times slower, so raw wall times of
    the same code spread by 20 to 45 % between runs. The kernel mixes what
    pndnet spends its time on, interpreter loops and numpy reductions over
    slices of a feature map as large as the paper geometry's, so it slows with
    the program. It is timed right before and right after every sample, and
    inside it (see ``inside``); the sample's wall time, readings excluded, is
    multiplied by ``REFERENCE_S`` over the mean reading. The kernel is
    benchmark code: no change to pndnet moves it.
    """

    def __init__(self):
        self.array = np.arange(32 * 224 * 224, dtype=np.float32).reshape(32, 224, 224)
        self.last = 0.0          # duration of the latest reading
        self.last_end = -np.inf  # when it ended
        self.total = 0.0         # seconds spent in readings
        self.readings: list[float] = []   # the current sample's readings

    def reference(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for i in range(0, 224, 16):
            for j in range(0, 224, 16):
                self.array[:, i:i + 16, j:j + 16].max(axis=(1, 2))
        self.last_end = time.perf_counter()
        self.last = self.last_end - start
        self.total += self.last
        self.readings.append(self.last)
        return self.last

    def begin(self) -> tuple[float, float]:
        """Starts a sample with a reading (a fresh one is reused); returns the
        start time and the reading total, for ``split``."""
        if time.perf_counter() - self.last_end > FRESH_S:
            self.reference()
        self.readings = [self.last]
        return time.perf_counter(), self.total

    def split(self, begun: tuple[float, float]) -> float:
        """Wall seconds since ``begin``, without the readings taken since."""
        start, total = begun
        return time.perf_counter() - start - (self.total - total)

    def factor(self) -> float:
        """``REFERENCE_S`` over the sample's mean reading, one taken now included."""
        self.reference()
        return REFERENCE_S * len(self.readings) / sum(self.readings)

    def end(self, begun: tuple[float, float]) -> Sample:
        wall = self.split(begun)
        return Sample(wall, wall * self.factor())

    @contextlib.contextmanager
    def inside(self, cls, attr: str):
        """Also take readings before calls to ``cls.attr``, at most every
        ``INNER_S``, so that a long sample such as a 10 s epoch is scaled by
        the machine's speed throughout, not only at its ends."""
        fn = cls.__dict__[attr]

        @functools.wraps(fn)
        def paced(*args, **kwargs):
            if time.perf_counter() - self.last_end >= INNER_S:
                self.reference()
            return fn(*args, **kwargs)

        setattr(cls, attr, paced)
        try:
            yield
        finally:
            setattr(cls, attr, fn)


@dataclass
class RoundResult:
    train_s_per_image: list[Sample]   # one sample per epoch
    eval_s_per_image: list[Sample]    # one sample per evaluate_model call
    predict_s: list[Sample]
    loss: float
    digest: str


class Bench:
    def __init__(self, wl: Workload, seed: int, workdir: Path, ledger: Ledger):
        self.wl = wl
        self.seed = seed
        self.ledger = ledger
        self.mcfg = model_config(wl.geometry)
        self.tcfg = tr.TrainConfig(batch_size=12, epochs=wl.epochs, seed=seed)
        self.corpus = workdir / "corpus"
        self.round_path = workdir / "round.pndw"
        self.expected_macs = expected_propagation_macs(self.mcfg)
        self.pace = Pace()
        self.setup_times: list[Sample] = []
        synthetic.make_blob_corpus(self.corpus, n_train=wl.train_images, n_test=wl.test_images,
                                   n_classes=N_CLASSES, image_size=wl.image_px, seed=seed)
        self.dataset = data.load_dataset(self.corpus)
        self.plan = synthetic.blob_split_plan(self.dataset, seed=seed)
        self.means = data.compute_channel_means(self.dataset, self.plan.train,
                                                resize_size=self.mcfg.resize_size,
                                                crop_size=self.mcfg.image_size)

    def new_model(self):
        return md.PNDNet(self.mcfg, self.dataset.n_classes, T.Rng(self.seed).child("init"))

    def setup(self) -> None:
        """The timed set-up a user pays before the first train call."""
        dataset = data.load_dataset(self.corpus)
        plan = synthetic.blob_split_plan(dataset, seed=self.seed)
        data.compute_channel_means(dataset, plan.train, resize_size=self.mcfg.resize_size,
                                   crop_size=self.mcfg.image_size)
        md.PNDNet(self.mcfg, dataset.n_classes, T.Rng(self.seed).child("init"))

    def timed_setups(self, n: int):
        for _ in range(n):
            begun = self.pace.begin()
            failed = self.ledger.failed
            self.ledger.attempt("setup", self.setup)
            sample = self.pace.end(begun)
            if self.ledger.failed == failed:
                self.setup_times.append(sample)

    def round(self, train_images: int, test_images: int, tcfg) -> RoundResult | None:
        ledger = self.ledger
        train_idx = self.plan.train[:train_images]
        test_idx = self.plan.test[:test_images]
        model = self.new_model()
        # the readings of the whole train_model call scale all its epochs
        begun = self.pace.begin()
        ticks = [0.0]
        history = ledger.attempt("train_model", tr.train_model, model, self.dataset, train_idx,
                                 tcfg, self.means, log=lambda _: ticks.append(self.pace.split(begun)))
        factor = self.pace.factor()
        if history is None:
            return None
        epochs = [Sample(b - a, (b - a) * factor) / len(train_idx)
                  for a, b in zip(ticks, ticks[1:])]
        reloaded = self.save_and_reload(model, tcfg)
        if reloaded is None:
            return None
        loaded, extras, digest = reloaded
        means = extras["channel_means"]
        # one image per evaluate_model call: short calls give more samples a run
        eval_s = []
        for i in test_idx:
            begun = self.pace.begin()
            report = ledger.attempt("evaluate_model", tr.evaluate_model, loaded, self.dataset,
                                    [i], means)
            sample = self.pace.end(begun)
            if report is None:
                return None
            eval_s.append(sample)
            ledger.check(report.total == 1 and 0.0 <= report.accuracy <= 1.0,
                         f"evaluate_model report covers {report.total} images, not 1")
        predict_s = []
        for i in test_idx:
            sample = ledger.attempt("predict", self.predict_one, loaded, self.dataset.samples[i][0],
                                    means)
            if sample is not None:
                predict_s.append(sample)
        return RoundResult(train_s_per_image=epochs, eval_s_per_image=eval_s,
                           predict_s=predict_s, loss=history[-1].loss, digest=digest)

    def save_and_reload(self, model, tcfg):
        def save_load():
            ckpt = ck.checkpoint_from_model(model, self.mcfg, tcfg, self.dataset.class_names,
                                            self.means)
            ck.save_checkpoint(ckpt, self.round_path)
            loaded, extras = ck.model_from_checkpoint(ck.load_checkpoint(self.round_path))
            return ckpt, loaded, extras

        out = self.ledger.attempt("checkpoint save/load", save_load)
        if out is None:
            return None
        ckpt, loaded, extras = out
        same = all(np.array_equal(p.data, ckpt.tensors[name]) for name, p in loaded.parameters())
        self.ledger.check(same, "reloaded checkpoint differs from the saved model")
        return loaded, extras, hashlib.sha256(self.round_path.read_bytes()).hexdigest()

    def predict_one(self, model, path: Path, means) -> Sample:
        """One ``pndnet predict`` step; returns its latency after the gates."""
        macs_before = graph.PROPAGATION_MACS.macs
        begun = self.pace.begin()
        x = data.preprocess(imageio.read_image(path), "eval", channel_means=means,
                            resize_size=self.mcfg.resize_size, crop_size=self.mcfg.image_size)
        probs = model.predict_probabilities(x)
        sample = self.pace.end(begun)
        macs = graph.PROPAGATION_MACS.macs - macs_before
        total = float(np.sum(probs, dtype=np.float64))
        self.ledger.check(bool(np.all(np.isfinite(probs))) and abs(total - 1.0) <= PROB_SUM_TOLERANCE,
                          f"{path.name}: probabilities not finite or sum {total!r} != 1")
        self.ledger.check(macs == self.expected_macs,
                          f"propagation MACs {macs} != {self.expected_macs} for the config")
        return sample

    def measure(self, seconds: float) -> list[RoundResult]:
        """Closed loop of rounds for about ``seconds`` (at least one round).

        A round starts only if half of the mean round so far still fits, so a
        run overshoots by at most half a round.
        """
        results = []
        start = time.perf_counter()
        elapsed = 0.0
        while not results or elapsed + 0.5 * elapsed / len(results) < seconds:
            self.timed_setups(SETUPS_PER_ROUND)
            result = self.round(self.wl.train_images, self.wl.test_images, self.tcfg)
            if result is None:
                break
            results.append(result)
            elapsed = time.perf_counter() - start
        return results

    def warm_up(self):
        """One small untimed round: first calls are slower than steady state."""
        self.round(1, 1, tr.TrainConfig(batch_size=12, epochs=1, seed=self.seed))


def medians(setup_times, rounds, kind: str = "scaled") -> dict:
    """Per-run medians of the samples' ``kind`` field: "scaled" or "wall"."""
    def med(samples):
        return statistics.median(getattr(x, kind) for x in samples)

    return {
        "setup_s": med(setup_times),
        "train_s_per_image": med(x for r in rounds for x in r.train_s_per_image),
        "eval_images_per_s": 1.0 / med(x for r in rounds for x in r.eval_s_per_image),
        "predict_ms_p50": 1e3 * med(x for r in rounds for x in r.predict_s),
    }


UNITS = {"setup_s": "s", "train_s_per_image": "s/img", "eval_images_per_s": "img/s",
         "predict_ms_p50": "ms"}


def end_to_end(setup_times, rounds) -> dict:
    """Medians of the scaled samples; see README.md for why they are scaled."""
    out = {k: (v, UNITS[k]) for k, v in medians(setup_times, rounds).items()}
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    return out


def informational(setup_times, rounds) -> dict:
    """Printed with every run but not part of the result object."""
    out = {f"wall.{k}": (v, UNITS[k]) for k, v in medians(setup_times, rounds, "wall").items()}
    ms = [1e3 * x.scaled for r in rounds for x in r.predict_s]
    if len(ms) >= 100:
        out["predict_ms_p90"] = (statistics.quantiles(ms, n=10)[-1], "ms")
    out["train_loss_final"] = (rounds[0].loss, "nats")
    return out


def per_layer(tracer: Tracer, bench: Bench, wall: float, overhead: float, macs: int) -> dict:
    """``wall`` is the traced wall time without the reference kernel runs."""
    tot = tracer.totals()
    grad_on = tracer.totals(lambda s: s[GRAD])
    grad_off = tracer.totals(lambda s: not s[GRAD])
    selfs = tracer.self_seconds()

    def calls(name, table=tot):
        return table[name][0] if name in table else 0

    def secs(*names, table=tot):
        return sum(table[n][1] for n in names if n in table)

    def mean(name, table=tot):
        n = calls(name, table)
        return secs(name, table=table) / n if n else 0.0

    n_train = calls("model.PNDNet.forward", grad_on)   # training images x epochs
    n_fwd = calls("model.PNDNet.forward")              # every forward, train and eval
    out = {
        "imageio.read_s": (mean("imageio.read_image"), "s"),
        "data.preprocess_train_s": (mean("data.preprocess.train"), "s"),
        "data.preprocess_eval_s": (mean("data.preprocess.eval"), "s"),
        "data.preprocess_eval_calls_per_image": (eval_calls_per_image(tracer, bench), "count"),
        "backbone.fwd_s": (mean("backbone.Backbone.forward", grad_on), "s"),
        "backbone.fwd_nograd_s": (mean("backbone.Backbone.forward", grad_off), "s"),
        "backbone.conv_macs": (tracer.counts[("conv_macs", "backbone")]
                               / calls("backbone.Backbone.forward"), "count"),
    }
    for op in ("conv2d", "adaptive_max_pool2d", "relu", "add", "upsample_nearest"):
        out[f"tensor.{op}.fwd_s"] = (secs(f"tensor.{op}", table=grad_on) / n_train, "s")
        out[f"tensor.{op}.bwd_s"] = (secs(f"tensor.{op}.bwd") / n_train, "s")
    for stage in ("backbone", "regions"):
        staged = tracer.totals(lambda s: s[STAGE] == stage and s[GRAD])
        out[f"tensor.adaptive_max_pool2d.{stage}.fwd_s"] = (
            secs("tensor.adaptive_max_pool2d", table=staged) / n_train, "s")
        out[f"tensor.adaptive_max_pool2d.{stage}.bwd_s"] = (
            secs("tensor.adaptive_max_pool2d.bwd", table=staged) / n_train, "s")
    saves = calls("checkpoint.save_checkpoint")
    loads = calls("checkpoint.load_checkpoint")
    out.update({
        "tensor.backward_s": (secs("tensor.Tensor.backward") / n_train, "s"),
        "tensor.backward_self_s": (selfs["tensor.Tensor.backward"] / n_train, "s"),
        "tensor.graph_nodes": (tracer.counts["graph_nodes"] / n_train, "count"),
        "tensor.op_output_bytes": (tracer.counts["op_output_bytes"] / n_train, "B"),
        "tensor.sgd_s": (secs("tensor.sgd_step") / n_train, "s"),
        "regions.upsample_s": (secs("regions.upsample_features") / n_fwd, "s"),
        "regions.nodes_s": (secs("regions.spp", "regions.extract_regions",
                                 "regions.region_descriptors") / n_fwd, "s"),
        "graph.gcn_s": (secs("graph.gcn_forward") / n_fwd, "s"),
        "graph.propagation_macs": (macs / n_fwd, "count"),
        "head.fwd_s": (secs("head.gap_nodes", "head.head_logits") / n_fwd, "s"),
        "head.loss_s": (secs("head.cross_entropy") / n_train, "s"),
        "train.loop_self_s": (selfs["train.train_model"] / n_train, "s"),
        "train.eval_pass_s": (secs("train._eval_accuracy") / n_train, "s"),
        "checkpoint.save_s": (secs("checkpoint.checkpoint_from_model",
                                   "checkpoint.save_checkpoint") / saves, "s"),
        "checkpoint.load_s": (secs("checkpoint.load_checkpoint",
                                   "checkpoint.model_from_checkpoint") / loads, "s"),
        "checkpoint.bytes": (bench.round_path.stat().st_size, "B"),
        "metrics.compute_s": (secs("metrics.compute_metrics", "metrics.top_k_accuracy")
                              / calls("train.evaluate_model"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.coverage": (tracer.root_seconds() / wall, "ratio"),
    })
    return out


def eval_calls_per_image(tracer: Tracer, bench: Bench) -> float:
    """Eval-mode preprocess calls per distinct training image, for one set-up
    (channel means) plus one ``train_model``."""
    in_means = tracer.under("data.compute_channel_means")
    in_train = tracer.under("train.train_model")
    evals = [s[0] == "data.preprocess.eval" for s in tracer.spans]
    tot = tracer.totals()
    return (sum(e and m for e, m in zip(evals, in_means))
            / (tot["data.compute_channel_means"][0] * len(bench.plan.train))
            + sum(e and t for e, t in zip(evals, in_train))
            / (tot["train.train_model"][0] * bench.wl.train_images))


def environment(workload: str, seed: int, seconds: float, trace: bool, threads: int,
                root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads_env": threads,
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "git_sha": _git_sha(root)}


def _git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def run(workload: str, seed: int, seconds: float, trace: bool, threads: int, root: Path) -> int:
    if workload not in WORKLOADS:
        print(f"perfbench: unknown workload {workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(workload, seed, seconds, trace, threads, root)
    print(json.dumps({"environment": env}, sort_keys=True), flush=True)
    workdir = root / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ledger = Ledger()
        bench = Bench(WORKLOADS[workload], seed, workdir, ledger)
        bench.warm_up()
        budget = seconds / 2 if trace else seconds
        # readings inside samples only untraced: traced, they would land in spans
        with bench.pace.inside(md.PNDNet, "forward"):
            rounds = bench.measure(budget)
        if not rounds or not bench.setup_times:
            print("perfbench: no round or set-up completed", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": ledger.attempted,
                              "failed": ledger.failed, "metrics": {}}))
            return 1
        e2e = end_to_end(bench.setup_times, rounds)
        ledger.check(len({r.digest for r in rounds}) == 1 and len({r.loss for r in rounds}) == 1,
                     "rounds with one seed gave different checkpoints")
        info = informational(bench.setup_times, rounds)
        metrics = e2e
        if trace:
            metrics = traced_metrics(bench, budget, rounds, e2e, ledger)
        info["failed_ratio"] = (ledger.failed / max(ledger.attempted, 1), "ratio")
        for name, (value, unit) in {**e2e, **info, **metrics}.items():
            print(f"{name} {value!r} {unit}")
        correct = ledger.failed == 0
        print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                          "failed": ledger.failed,
                          "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_metrics(bench: Bench, budget: float, untraced, e2e: dict, ledger: Ledger) -> dict:
    tracer = Tracer(T)
    macs_before = graph.PROPAGATION_MACS.macs
    with traced(tracer):
        start = time.perf_counter()
        reference_before = bench.pace.total
        rounds = bench.measure(budget)
        wall = time.perf_counter() - start - (bench.pace.total - reference_before)
    macs = graph.PROPAGATION_MACS.macs - macs_before
    ledger.check(bool(rounds) and all(r.digest == untraced[0].digest for r in rounds),
                 "traced run gave a different checkpoint than the untraced run")
    if not rounds:
        return {}
    overhead = (statistics.median(x.scaled for r in rounds for x in r.train_s_per_image)
                / e2e["train_s_per_image"][0] - 1.0)
    layers = per_layer(tracer, bench, wall, overhead, macs)
    layers["train.loss_final"] = (rounds[0].loss, "nats")
    n_fwd = tracer.totals()["model.PNDNet.forward"][0]
    ledger.check(macs == bench.expected_macs * n_fwd,
                 f"graph.propagation_macs {macs / n_fwd} != {bench.expected_macs} for the config")
    coverage = layers["trace.coverage"][0]
    ledger.check(coverage >= 1.0 - TRACE_RESIDUAL,
                 f"spans cover {coverage:.3f} of the traced wall time, below {1 - TRACE_RESIDUAL}")
    return layers
