"""Staged convolutional networks for teacher-student training.

A network is an ordered list of stages, each a list of conv units. Each
stage downsamples spatially by exactly 2x and produces the stage feature F_i;
a flatten+linear head maps the last stage feature to the embedding. Teacher
and student share this structure and differ only in channel widths, so a
per-stage 1x1 projection (plus batch norm) can lift student features into
teacher width. Such a transform is training scaffolding: the loss reads it
while the student trains, and no checkpoint keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError
from .rng import substream


@dataclass(frozen=True)
class ArchConfig:
    """Shapes of the reference teacher/student pair."""

    input_size: int = 16
    in_channels: int = 1
    num_stages: int = 4
    teacher_channels: tuple[int, ...] = (32, 64, 128, 256)
    student_channels: tuple[int, ...] = (8, 16, 32, 64)
    block_depth: int = 2
    embedding_dim: int = 32

    def validate(self) -> "ArchConfig":
        """Check the rules that tie keys together; config.RANGES bounds each key."""
        for name in ("teacher_channels", "student_channels"):
            channels = getattr(self, name)
            if len(channels) != self.num_stages:
                raise ConfigError(
                    f"arch.{name}: expected one entry per stage (arch.num_stages = "
                    f"{self.num_stages}), got {len(channels)} entries"
                )
        if self.input_size < 2**self.num_stages:
            raise ConfigError(
                f"arch.input_size: expected at least 2^arch.num_stages = "
                f"{2**self.num_stages}, got {self.input_size}"
            )
        return self

    def stage_sizes(self) -> list[int]:
        """Spatial side length after each stage."""
        sizes, s = [], self.input_size
        for _ in range(self.num_stages):
            s = (s + 1) // 2
            sizes.append(s)
        return sizes


BN_EPS = 1e-5  # batch norm's variance floor, in ConvUnit and StudentTransform alike
BN_MOMENTUM = 0.9  # the weight of the old value in each running-estimate update


class BatchNorm:
    """Per-channel batch normalization over all non-channel axes, in train mode.

    Each forward normalizes with the batch statistics (biased variance) and
    updates the running estimates. Eval mode, which normalizes with the
    running estimates, runs only folded into a FoldedUnit.
    """

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor) -> Tensor:
        out, mean, var = ad.batch_norm(x, self.gamma, self.beta, BN_EPS)
        # in place, so that the buffers a network lists keep their identity
        m = BN_MOMENTUM
        self.running_mean *= m
        self.running_mean += (1.0 - m) * mean
        self.running_var *= m
        self.running_var += (1.0 - m) * var
        return out


class ConvUnit:
    """3x3 conv (stride 1 or 2) -> batch norm -> PReLU."""

    def __init__(self, c_in: int, c_out: int, stride: int, rng: np.random.Generator):
        fan_in = 9 * c_in
        self.stride = stride
        self.weight = Tensor(
            rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(3, 3, c_in, c_out)),
            requires_grad=True,
        )
        self.bn = BatchNorm(c_out)
        self.slope = Tensor(np.full(c_out, 0.25), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        """Train mode; in eval mode the unit runs as a FoldedUnit."""
        y = ad.conv2d_3x3(x, self.weight, stride=self.stride)
        y = self.bn.forward(y)
        return ad.prelu(y, self.slope)


class FoldedUnit:
    """A ConvUnit in eval mode as one op, folded from the unit's values when built.

    Eval-mode batch norm is the affine map y * scale + (beta - running_mean *
    scale) with scale = gamma / sqrt(running_var + eps): the scale goes into
    the live-tap weight matrix of the unit's input side, the rest into a
    per-channel shift. The unit holds only those two and the PReLU slopes,
    as plain arrays, so no gradient reaches them; it keeps nothing of the
    ConvUnit it was folded from.
    """

    def __init__(self, unit: ConvUnit, side: int):
        bn = unit.bn
        scale = bn.gamma.data / np.sqrt(bn.running_var + BN_EPS)
        self.stride = unit.stride
        self.wmat = ad.tap_matrix(unit.weight.data, side, side, unit.stride) * scale
        self.shift = bn.beta.data - bn.running_mean * scale
        self.slope = unit.slope.data.copy()

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv_unit(x, self.wmat, self.shift, self.slope, self.stride)


class StagedNetwork:
    """Stages of `arch.block_depth` conv units, the first with stride 2, then a linear head.

    `freeze` replaces each ConvUnit by its FoldedUnit, so a frozen network
    holds folded units and a constant head only.
    """

    def __init__(self, arch: ArchConfig, channels: tuple[int, ...], rng: np.random.Generator):
        arch.validate()
        self.arch = arch
        self.channels = tuple(channels)
        self.stages: list[list[ConvUnit | FoldedUnit]] = [
            [ConvUnit(c if k else c_in, c, 1 if k else 2, rng) for k in range(arch.block_depth)]
            for c_in, c in zip((arch.in_channels, *channels), channels)
        ]
        side = arch.stage_sizes()[-1]
        self.flat_dim = side * side * channels[-1]
        self.head_weight = Tensor(
            rng.normal(0.0, np.sqrt(2.0 / self.flat_dim), size=(self.flat_dim, arch.embedding_dim)),
            requires_grad=True,
        )

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def frozen(self) -> bool:
        """True once `freeze` has put each unit's fold in its place."""
        return isinstance(self.stages[0][0], FoldedUnit)

    def forward(self, x: Tensor) -> tuple[list[Tensor], Tensor]:
        """All stage features F_1..F_n plus the embedding of the last one, through `stages`.

        Before `freeze` this is train mode: every batch norm updates its
        running estimates. A frozen network holds only folded units, so its
        forward is its eval-mode pass and changes no state. Only the input
        is checked: each later stage reads the output of the one before it.
        """
        c_in = self.arch.in_channels
        if x.ndim != 4 or x.shape[-1] != c_in:
            raise DimensionError(f"stage 1: expected input [B,h,w,{c_in}], got {x.shape}")
        features: list[Tensor] = []
        for units in self.stages:
            for unit in units:
                x = unit.forward(x)
            features.append(x)
        return features, self.head(x)

    def head(self, feature: Tensor) -> Tensor:
        flat = feature.reshape(feature.shape[0], self.flat_dim)
        return ad.matmul(flat, self.head_weight)

    def tail(self, stage: int, feature: Tensor) -> Tensor:
        """Embed `feature` by running stages stage+1..n and the head.

        The tail runs only on a frozen network, so always in eval mode: a
        network that is not frozen raises ContractError, as its units would
        run in train mode and update their running estimates. Gradients
        still flow through to `feature`.
        """
        if not self.frozen:
            raise ContractError("tail: the network is not frozen (see nets.freeze)")
        if not 1 <= stage <= self.num_stages:
            raise DimensionError(f"stage {stage} outside 1..{self.num_stages}")
        expected_c = self.channels[stage - 1]
        side = self.arch.stage_sizes()[stage - 1]
        if feature.ndim != 4 or feature.shape[1:] != (side, side, expected_c):
            raise DimensionError(
                f"stage {stage}: tail expects [B,{side},{side},{expected_c}], got {feature.shape}"
            )
        x = feature
        for units in self.stages[stage:]:
            for unit in units:
                x = unit.forward(x)
        return self.head(x)

    # -- named state --------------------------------------------------------

    def state(self) -> dict[str, Tensor | np.ndarray]:
        """Parameters, then batch-norm buffers, under their checkpoint names.

        Only a network that is not frozen has them: a frozen one is never
        trained or saved, and its folded units hold plain arrays, so it
        raises ContractError.
        """
        if self.frozen:
            raise ContractError("a frozen network has no parameters or buffers, only folded units")
        params: dict[str, Tensor] = {}
        buffers: dict[str, np.ndarray] = {}
        for i, stage in enumerate(self.stages, start=1):
            for k, unit in enumerate(stage, start=1):
                prefix = f"net.block{i}."
                params[f"{prefix}conv{k}.weight"] = unit.weight
                params[f"{prefix}bn{k}.gamma"] = unit.bn.gamma
                params[f"{prefix}bn{k}.beta"] = unit.bn.beta
                params[f"{prefix}prelu{k}.slope"] = unit.slope
                buffers[f"{prefix}bn{k}.running_mean"] = unit.bn.running_mean
                buffers[f"{prefix}bn{k}.running_var"] = unit.bn.running_var
        params["net.head.weight"] = self.head_weight
        return params | buffers

    def param_count(self) -> int:
        return sum(p.data.size for p in parameters(self).values())


class StudentTransform:
    """Lift a student stage feature to teacher width: 1x1 conv then batch norm.

    Only the training loss reads a transform, so it runs in train mode only:
    its batch norm always normalizes with the batch statistics and keeps no
    running estimates. A student checkpoint does not hold its transforms.
    """

    def __init__(self, stage: int, c_student: int, c_teacher: int, rng: np.random.Generator):
        self.stage = stage
        self.c_student = c_student
        self.proj = Tensor(
            rng.normal(0.0, np.sqrt(2.0 / c_student), size=(c_student, c_teacher)),
            requires_grad=True,
        )
        self.gamma = Tensor(np.ones(c_teacher), requires_grad=True)
        self.beta = Tensor(np.zeros(c_teacher), requires_grad=True)

    def forward(self, feature: Tensor) -> Tensor:
        if feature.shape[-1] != self.c_student:
            raise DimensionError(
                f"stage {self.stage}: transform expects {self.c_student} channels, "
                f"got {feature.shape}"
            )
        return ad.batch_norm(ad.conv2d_1x1(feature, self.proj), self.gamma, self.beta, BN_EPS)[0]

    def state(self) -> dict[str, Tensor | np.ndarray]:
        prefix = f"transform{self.stage}."
        return {
            f"{prefix}proj.weight": self.proj,
            f"{prefix}bn.gamma": self.gamma,
            f"{prefix}bn.beta": self.beta,
        }


class ClassifierHead:
    """Bias-free linear classifier over embeddings.

    plain mode: logits are raw inner products with the class rows.
    normalized mode: rows and embedding are unit-normalized on the fly, so the
    logit for class c is scale * cos(theta_c).
    """

    MODES = ("plain", "normalized")

    def __init__(
        self, num_classes: int, dim: int, mode: str, scale: float, rng: np.random.Generator
    ):
        if mode not in self.MODES:
            raise ConfigError(f"classifier mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        self.scale = float(scale)
        self.weight = Tensor(rng.normal(0.0, 1.0, size=(num_classes, dim)), requires_grad=True)

    def logits(self, embedding: Tensor) -> Tensor:
        if embedding.ndim != 2 or embedding.shape[1] != self.weight.shape[1]:
            raise DimensionError(
                f"embedding {embedding.shape} does not match classifier dim "
                f"{self.weight.shape[1]}"
            )
        if self.mode == "plain":
            return ad.matmul(embedding, ad.transpose(self.weight))
        cos = ad.matmul(ad.l2_normalize(embedding), ad.transpose(ad.l2_normalize(self.weight)))
        return cos * self.scale


    def state(self) -> dict[str, Tensor | np.ndarray]:
        return {"classifier.weight": self.weight}


# -- named state of modules --------------------------------------------------
#
# StagedNetwork, StudentTransform and ClassifierHead each list their state
# under its checkpoint name: a Tensor is a parameter, an array is a buffer.


def parameters(*modules) -> dict[str, Tensor]:
    return {k: v for m in modules for k, v in m.state().items() if isinstance(v, Tensor)}


def freeze(net: StagedNetwork) -> None:
    """Make `net` a fixed function: fold each ConvUnit once and keep only the folds.

    Each unit is folded at its input side from the values it holds now, and
    its FoldedUnit takes its place in `net.stages`; the head weight becomes
    a constant. A frozen network then holds folded live-tap matrices,
    shifts, slopes and its head, no value that could take a gradient, and
    every pass of it (`forward`, `tail`) runs those units. A frozen network
    is left as it is.
    """
    if net.frozen:
        return
    sides = [net.arch.input_size, *net.arch.stage_sizes()]
    net.stages = [
        [FoldedUnit(unit, sides[i + (k > 0)]) for k, unit in enumerate(stage)]
        for i, stage in enumerate(net.stages)
    ]
    net.head_weight = Tensor(net.head_weight.data)


def state_arrays(*modules) -> dict[str, np.ndarray]:
    """The live arrays behind every parameter and buffer, in checkpoint order."""
    return {
        k: v.data if isinstance(v, Tensor) else v for m in modules for k, v in m.state().items()
    }


def stage_transforms(arch: ArchConfig, seed: int) -> list[StudentTransform]:
    """One transform per stage 1..n-1, lifting student width to teacher width.

    Stage n compares the embeddings directly and has none.
    """
    rng = substream(seed, "transform-init")
    return [
        StudentTransform(i + 1, arch.student_channels[i], arch.teacher_channels[i], rng)
        for i in range(arch.num_stages - 1)
    ]


def build_reference_pair(
    arch: ArchConfig, seed: int
) -> tuple[StagedNetwork, StagedNetwork, list[StudentTransform]]:
    """Teacher, student, and the channel-matching transforms of stages 1..n-1."""
    arch.validate()
    teacher = StagedNetwork(arch, arch.teacher_channels, substream(seed, "teacher-init"))
    student = StagedNetwork(arch, arch.student_channels, substream(seed, "student-init"))
    return teacher, student, stage_transforms(arch, seed)
