"""Wrappers installed around the program's public functions from outside it.

`Phases` is the light probe of the timed run: it times the `compare` phases
and evaluation and keeps references to what the output checks need. `Tracer`
is the probe of the traced run: it records a span around every call into the
layers, attributes backward time to the layer that built each graph node, and
keeps the spans in memory until the run writes them out.
"""

from __future__ import annotations

import hashlib
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _program_modules():
    return [m for name, m in list(sys.modules.items()) if name == "spherekd" or name.startswith("spherekd.")]


class Patches:
    """Replace functions and methods of the program, and put them back."""

    def __init__(self):
        self._undo = []

    def function(self, module, name: str, make_wrapper) -> None:
        """Wrap `module.name` in every program module that binds it by name."""
        orig = getattr(module, name)
        wrapper = make_wrapper(orig)
        for mod in _program_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def method(self, cls, name: str, make_wrapper) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, make_wrapper(orig))
        self._undo.append((cls, name, orig))

    def remove(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _phase_of(args, kwargs) -> str:
    cfg = args[0] if args else kwargs["cfg"]
    return cfg.distill.kind


class Phases:
    """Phase times of one round, and what the output checks need of it.

    `inspect(dataset, vprot, iprot, embeddings)` runs after each evaluation
    and returns the small record the checks keep, so that no dataset or
    embedding table outlives its evaluation and peak memory stays the
    program's own. Time spent inspecting or hashing the teacher checkpoint is
    kept in `probe_s` so that the caller can take it out of the verb's wall
    time.
    """

    def __init__(self, inspect):
        self.inspect = inspect
        self.patches = Patches()
        self.new_round()

    def new_round(self) -> None:
        self.times: dict[str, float] = defaultdict(float)
        self.probe_s = 0.0
        self.evaluations = []  # one inspect() record per evaluation
        self.teacher_digests = []  # after train_teacher, before/after each train_student
        self._embeddings = None

    def install(self) -> None:
        from spherekd import engine

        def train_teacher(orig):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                result = orig(*args, **kwargs)
                self.times["teacher_train_s"] += perf_counter() - start
                self._digest(result[0])
                return result

            return wrapper

        def train_student(orig):
            def wrapper(*args, **kwargs):
                teacher = args[1] if len(args) > 1 else kwargs.get("teacher_path")
                if teacher is not None:
                    self._digest(teacher)
                start = perf_counter()
                result = orig(*args, **kwargs)
                self.times[f"student_{_phase_of(args, kwargs)}_s"] += perf_counter() - start
                if teacher is not None:
                    self._digest(teacher)
                return result

            return wrapper

        def extract_embeddings(orig):
            def wrapper(*args, **kwargs):
                self._embeddings = orig(*args, **kwargs)
                return self._embeddings

            return wrapper

        def evaluate_network(orig):
            def wrapper(net, dataset, vprot, iprot):
                start = perf_counter()
                metrics = orig(net, dataset, vprot, iprot)
                end = perf_counter()
                self.times["evaluate_s"] += end - start
                self.evaluations.append(self.inspect(dataset, vprot, iprot, self._embeddings))
                self._embeddings = None
                self.probe_s += perf_counter() - end
                return metrics

            return wrapper

        self.patches.function(engine, "train_teacher", train_teacher)
        self.patches.function(engine, "train_student", train_student)
        self.patches.function(engine, "extract_embeddings", extract_embeddings)
        self.patches.function(engine, "evaluate_network", evaluate_network)

    def _digest(self, path) -> None:
        start = perf_counter()
        self.teacher_digests.append(file_digest(path))
        self.probe_s += perf_counter() - start

    def remove(self) -> None:
        self.patches.remove()


# -- layer tracing ------------------------------------------------------------------

# Labels whose graph nodes get their backward time attributed (inclusively).
LAYER_OPS = ("conv2d_1x1", "prelu", "matmul", "l2_normalize", "softmax_cross_entropy")
STEP_KINDS = ("teacher", "none", "l2", "angular")


class Tracer:
    """Spans at every layer boundary, with self time, counts and backward time.

    A span is (round, name id, start, end, parent span index). Backward time
    is measured by wrapping the closure each labelled call hands to
    `Tensor._make`; it is charged to every layer label that was open when the
    node was built, and recorded as a span named after the innermost label.
    """

    def __init__(self, input_size: int):
        self.input_size = input_size
        self.patches = Patches()
        self.names: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[list] = []  # [name, child seconds, span index, is layer]
        self.round = -1
        self.phase: str | None = None
        self.step_start: float | None = None
        self.step_ms: dict[str, list[float]] = {k: [] for k in STEP_KINDS}
        self.nodes: dict[str, list[int]] = {k: [] for k in STEP_KINDS}
        self.new_round()

    def new_round(self) -> None:
        self.round += 1
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.bwd: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._round_first_span = len(self.spans)

    # -- span bookkeeping --

    def _open(self, name: str, layer: bool) -> list:
        entry = [name, 0.0, len(self.spans), layer]
        parent = self.stack[-1][2] if self.stack else -1
        self.spans.append((self.round, self.names.setdefault(name, len(self.names)), 0.0, 0.0, parent))
        self.stack.append(entry)
        return entry

    def _close(self, entry: list, start: float, end: float) -> None:
        self.stack.pop()
        duration = end - start
        name = entry[0]
        rnd, name_id, _, _, parent = self.spans[entry[2]]
        self.spans[entry[2]] = (rnd, name_id, start, end, parent)
        self.total[name] += duration
        self.self_time[name] += duration - entry[1]
        self.count[name] += 1
        if self.stack:
            self.stack[-1][1] += duration

    def call(self, name: str, layer: bool, fn, *args, **kwargs):
        entry = self._open(name, layer)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(entry, start, perf_counter())

    def wrap(self, name: str, layer: bool = True):
        def make(orig):
            def wrapper(*args, **kwargs):
                return self.call(name, layer, orig, *args, **kwargs)

            return wrapper

        return make

    def _backward_closure(self, closure, labels: tuple[str, ...]):
        name = labels[-1] + ".bwd"

        def timed(g):
            entry = self._open(name, False)
            start = perf_counter()
            try:
                closure(g)
            finally:
                end = perf_counter()
                self._close(entry, start, end)
                for label in labels:
                    self.bwd[label] += end - start

        return timed

    def conv_stage(self, x, stride: int) -> int:
        h_out = (x.shape[-3] - 1) // stride + 1
        return int(round(math.log2(self.input_size / h_out)))

    # -- installation --

    def install(self) -> None:
        from spherekd import autodiff, checkpoint, data, engine, evaluate, losses, nets, optim

        tracer = self
        p = self.patches

        def make(orig):
            def _make(tensor, out_data, parents, backward):
                layers = tuple(e[0] for e in tracer.stack if e[3])
                if layers and backward is not None:
                    backward = tracer._backward_closure(backward, layers)
                return orig(tensor, out_data, parents, backward)

            return _make

        p.method(autodiff.Tensor, "_make", make)
        p.method(autodiff.Tensor, "backward", self.wrap("autodiff.backward", layer=False))

        def topo_order(orig):
            def wrapper(root):
                order = orig(root)
                if tracer.phase is not None:
                    tracer.nodes[tracer.phase].append(len(order))
                return order

            return wrapper

        p.function(autodiff, "topo_order", topo_order)

        def conv3x3(orig):
            def wrapper(x, weight, stride=1, padding=1):
                name = f"autodiff.conv2d_3x3.s{tracer.conv_stage(x, stride)}"
                tracer.count["autodiff.conv2d_3x3.calls"] += 1
                return tracer.call(name, True, orig, x, weight, stride, padding)

            return wrapper

        p.function(autodiff, "conv2d_3x3", conv3x3)
        for op in LAYER_OPS:
            p.function(autodiff, op, self.wrap(f"autodiff.{op}"))

        p.method(nets.BatchNorm, "forward", self.wrap("nets.BatchNorm"))
        p.method(nets.StagedNetwork, "tail", self.wrap("nets.StagedNetwork.tail"))
        p.method(nets.StudentTransform, "forward", self.wrap("nets.StudentTransform"))

        def composite_loss(orig):
            def wrapper(*args, **kwargs):
                tracer.step_start = perf_counter()
                return tracer.call("losses.composite_loss", True, orig, *args, **kwargs)

            return wrapper

        p.function(losses, "composite_loss", composite_loss)
        p.function(losses, "angular_distill_loss", self.wrap("losses.angular_distill_loss"))

        def sgd_step(orig):
            def wrapper(opt):
                lr = tracer.call("optim.SgdMomentum.step", False, orig, opt)
                if tracer.phase is not None and tracer.step_start is not None:
                    tracer.step_ms[tracer.phase].append((perf_counter() - tracer.step_start) * 1e3)
                tracer.step_start = None
                return lr

            return wrapper

        p.method(optim.SgdMomentum, "step", sgd_step)

        def phase(kind_of):
            def make_phase(orig):
                def wrapper(*args, **kwargs):
                    tracer.phase = kind_of(args, kwargs)
                    try:
                        return tracer.call(f"engine.train.{tracer.phase}", False, orig, *args, **kwargs)
                    finally:
                        tracer.phase = None

                return wrapper

            return make_phase

        p.function(engine, "train_teacher", phase(lambda a, k: "teacher"))
        p.function(engine, "train_student", phase(_phase_of))
        for fn in ("_precompute_teacher", "_train_eval_stats", "evaluate_network"):
            p.function(engine, fn, self.wrap(f"engine.{fn}", layer=False))

        def checkpoint_io(kind: str):
            def make_io(orig):
                def wrapper(path, *args):
                    result = tracer.call(f"checkpoint.{kind}", False, orig, path, *args)
                    tracer.count["checkpoint.bytes"] += Path(path).stat().st_size
                    return result

                return wrapper

            return make_io

        p.function(checkpoint, "save_checkpoint", checkpoint_io("save_checkpoint"))
        p.function(checkpoint, "load_checkpoint", checkpoint_io("load_checkpoint"))

        for fn in ("generate_dataset", "build_verification_protocol", "build_identification_protocol"):
            p.function(data, fn, self.wrap(f"data.{fn}", layer=False))

        def extract(orig):
            def wrapper(net, images, *args, **kwargs):
                tracer.count["evaluate.embedded_samples"] += int(images.shape[0])
                return tracer.call("evaluate.extract_embeddings", False, orig, net, images, *args, **kwargs)

            return wrapper

        p.function(evaluate, "extract_embeddings", extract)
        for fn in ("verification_accuracy", "rank1_identification"):
            p.function(evaluate, fn, self.wrap(f"evaluate.{fn}", layer=False))

    def remove(self) -> None:
        self.patches.remove()

    # -- results --

    def round_metrics(self) -> dict[str, float]:
        """Per-layer figures of the round that just ended."""
        t, s, b, c = self.total, self.self_time, self.bwd, self.count
        out = {}
        for k in range(1, 5):
            name = f"autodiff.conv2d_3x3.s{k}"
            out[f"{name}.fwd_s"] = t[name]
            out[f"{name}.bwd_s"] = b[name]
        out["autodiff.conv2d_3x3.calls"] = c["autodiff.conv2d_3x3.calls"]
        for op in LAYER_OPS:
            out[f"autodiff.{op}.fwd_s"] = t[f"autodiff.{op}"]
            out[f"autodiff.{op}.bwd_s"] = b[f"autodiff.{op}"]
        out["autodiff.backward.self_s"] = s["autodiff.backward"]
        for name in ("nets.BatchNorm", "nets.StudentTransform"):
            out[f"{name}.fwd_s"] = t[name]
            out[f"{name}.bwd_s"] = b[name]
        out["nets.StagedNetwork.tail.calls"] = c["nets.StagedNetwork.tail"]
        out["nets.StagedNetwork.tail.fwd_s"] = t["nets.StagedNetwork.tail"]
        out["nets.StagedNetwork.tail.bwd_s"] = b["nets.StagedNetwork.tail"]
        out["losses.composite_loss.fwd_s"] = t["losses.composite_loss"]
        out["losses.angular_distill_loss.self_s"] = s["losses.angular_distill_loss"]
        out["optim.SgdMomentum.step_s"] = t["optim.SgdMomentum.step"]
        out["engine.teacher_precompute_s"] = t["engine._precompute_teacher"]
        out["engine.train_eval_stats_s"] = t["engine._train_eval_stats"]
        for kind in STEP_KINDS:
            out[f"engine.train.{kind}_s"] = t[f"engine.train.{kind}"]
        out["checkpoint.save_s"] = t["checkpoint.save_checkpoint"]
        out["checkpoint.load_s"] = t["checkpoint.load_checkpoint"]
        out["checkpoint.bytes"] = c["checkpoint.bytes"]
        out["data.generate_dataset.calls"] = c["data.generate_dataset"]
        out["data.generate_dataset_s"] = t["data.generate_dataset"]
        out["data.verification_protocol_s"] = t["data.build_verification_protocol"]
        out["data.identification_protocol_s"] = t["data.build_identification_protocol"]
        out["evaluate.extract_embeddings_s"] = t["evaluate.extract_embeddings"]
        out["evaluate.embedded_samples"] = c["evaluate.embedded_samples"]
        out["evaluate.verification_accuracy_s"] = t["evaluate.verification_accuracy"]
        out["evaluate.rank1_identification_s"] = t["evaluate.rank1_identification"]
        out["trace.spans"] = len(self.spans) - self._round_first_span
        return out

    def step_metrics(self) -> dict[str, float]:
        """Step-time percentiles and graph sizes pooled over every traced round."""
        out = {}
        for kind in STEP_KINDS:
            steps = self.step_ms[kind]
            out[f"engine.step_ms.{kind}.p50"] = float(np.percentile(steps, 50)) if steps else 0.0
            out[f"engine.step_ms.{kind}.p90"] = float(np.percentile(steps, 90)) if steps else 0.0
            out[f"engine.step_ms.{kind}.steps"] = len(steps)
            nodes = self.nodes[kind]
            out[f"autodiff.nodes_per_step.{kind}"] = float(np.median(nodes)) if nodes else 0.0
        return out

    def write_spans(self, path) -> None:
        spans = np.array([s[2:4] for s in self.spans], dtype=np.float64).reshape(-1, 2)
        ids = np.array([s[:2] + s[4:] for s in self.spans], dtype=np.int64).reshape(-1, 3)
        names = np.array(sorted(self.names, key=self.names.get))
        np.savez_compressed(path, start_end=spans, round_name_parent=ids, names=names)
