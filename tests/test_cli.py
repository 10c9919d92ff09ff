"""Command-line surface: verbs, exit codes, file outputs, determinism."""

import json
import struct

import numpy as np
import pytest

from spherekd.checkpoint import load_checkpoint, save_checkpoint
from spherekd.cli import main
from spherekd.errors import ConfigError, NumericError

from .conftest import TOY_OVERRIDES, threads_from_8_rows


# Mistyped and out-of-range values: each numeric key just outside its range, and
# nan and inf for every float key. Each must exit 2 naming the key.
BAD_VALUES = [
    "train.batch_size=abc",
    "arch.teacher_channels=5",
    "data.pairs_per_side=0",
    "train.momentum=-3",
    "train.momentum=1",
    "train.decay_at=[2.0]",
    "train.decay_at=[0.5, -0.1]",
    "classifier.scale=0",
    "train.teacher_epochs=0",
    "train.student_epochs=0",
    "data.num_train_classes=1",
    "data.num_test_classes=1",
    "data.samples_per_class=1",
    "data.latent_dim=1",
    "data.noise_sigma=-0.1",
    "data.image_size=1",
    "data.num_distractors=-1",
    "data.renderer_hidden=0",
    "data.folds=1",
    "arch.input_size=1",
    "arch.in_channels=0",
    "arch.in_channels=2",
    "arch.num_stages=0",
    "arch.teacher_channels=[32, 0, 128, 256]",
    "arch.student_channels=[8, 16, -1, 64]",
    "arch.block_depth=0",
    "arch.embedding_dim=0",
    "classifier.scale=-1",
    "train.batch_size=1",
    "train.learning_rate=0",
    "train.decay_factor=-2",
    "train.decay_factor=0",
    "train.decay_factor=1.5",
    "distill.lambda_n=-1",
] + [
    f"{key}={value}"
    for key in ("data.noise_sigma", "classifier.scale", "train.learning_rate",
                "train.momentum", "train.decay_factor", "distill.lambda_n")
    for value in (".nan", ".inf", "-.inf")
] + ["train.decay_at=[.nan]", "train.decay_at=[0.5, .inf]"] + [
    # past either end of [-2^63, 2^63), two seeds would share one 64-bit stream
    f"seed={2**63}",
    f"seed={-(2**63) - 1}",
]


def run_cli(*argv):
    return main(list(argv))


def toy_args(out_dir, extra=()):
    args = []
    for item in TOY_OVERRIDES + list(extra):
        args += ["--set", item]
    args += ["--out", str(out_dir)]
    return args


class TestGenData:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run_cli("gen-data", *toy_args(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "effective_config.yaml", "identification.txt", "verification.txt"
        ]
        text = capsys.readouterr().out
        assert "8 train / 4 test classes" in text
        assert "20 pairs" in text

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen-data", *toy_args(out_a)) == 0
        assert run_cli("gen-data", *toy_args(out_b)) == 0
        for name in ("verification.txt", "identification.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_conflicting_config_names_key(self, tmp_path, capsys):
        code = run_cli(
            "gen-data", *toy_args(tmp_path / "x", extra=["data.image_size=4"])
        )
        assert code == 2
        assert "image_size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, keys",
        [
            (["arch.num_stages=3"], ["arch.teacher_channels", "arch.num_stages"]),
            (
                ["arch.num_stages=3", "arch.teacher_channels=[32, 64, 128]"],
                ["arch.student_channels", "arch.num_stages"],
            ),
            (["arch.input_size=8", "data.image_size=8"], ["arch.input_size", "arch.num_stages"]),
            (["data.pairs_per_side=15"], ["data.pairs_per_side", "data.folds"]),
            (["data.image_size=8"], ["data.image_size", "arch.input_size"]),
        ],
    )
    def test_cross_key_error_names_every_dotted_key(self, tmp_path, capsys, overrides, keys):
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert run_cli("gen-data", *sets, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("override", BAD_VALUES)
    def test_mistyped_value_exits_2_without_traceback(self, tmp_path, capsys, override):
        code = run_cli("gen-data", "--set", override, "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert override.split("=")[0] in err
        assert "Traceback" not in err

    def test_seed_range_ends_accepted(self, tmp_path):
        for seed in (-(2**63), 2**63 - 1):
            out = tmp_path / str(seed)
            assert run_cli("gen-data", *toy_args(out, extra=[f"seed={seed}"])) == 0
            assert (out / "verification.txt").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        code = run_cli("gen-data", "--set", "data.nclasses=4", "--out", str(tmp_path))
        assert code == 2
        assert "data.nclasses" in capsys.readouterr().err

    def test_config_not_utf8_exits_2_without_traceback(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_bytes(b"seed: 1\n\xff\n")
        code = run_cli("gen-data", "--config", str(cfg_file), "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestOutputDir:
    """`--out` is a path taken verbatim; an `output_dir` value must be a non-empty string."""

    @pytest.mark.parametrize("out", ["010", "1.50", "yes"])
    def test_out_is_taken_verbatim(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-data", *toy_args(out)) == 0
        assert [p.name for p in tmp_path.iterdir()] == [out]

    @pytest.mark.parametrize(
        "args",
        [["--set", f"output_dir={v}"] for v in ("010", "1.50", "yes", "null", "[a,b]", "''")]
        + [["--out", ""]],
        ids=" ".join,
    )
    def test_bad_value_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-data", *args) == 2
        err = capsys.readouterr().err
        assert "output_dir" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["010", "yes", "null", "[a, b]"])
    def test_bad_config_value_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, value):
        cfg_file = tmp_path / "config.yaml"
        cfg_file.write_text(f"output_dir: {value}\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run_cli("gen-data", "--config", str(cfg_file)) == 2
        err = capsys.readouterr().err
        assert "output_dir" in err and "Traceback" not in err
        assert list(work.iterdir()) == []


class TestDistill:
    def test_kind_none_without_teacher(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("distill", *toy_args(out), "--kind", "none")
        assert code == 0
        assert (out / "student_none.ckpt").exists()
        text = capsys.readouterr().out
        assert "verification accuracy" in text and "rank-1" in text

    def test_metrics_one_record_per_step(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train-teacher", *toy_args(out)) == 0
        code = run_cli(
            "distill", *toy_args(out), "--teacher", str(out / "teacher.ckpt"),
            "--kind", "angular",
        )
        assert code == 0
        log = (out / "student_angular_metrics.jsonl").read_text()
        records = [json.loads(l) for l in log.splitlines()]
        meta = records[0]
        steps = [r for r in records if r["type"] == "step"]
        assert len(steps) == meta["epochs"] * meta["steps_per_epoch"]

    def test_angular_run_reports_finite_metrics(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train-teacher", *toy_args(out)) == 0
        assert run_cli(
            "distill", *toy_args(out), "--teacher", str(out / "teacher.ckpt"),
        ) == 0
        eval_blob = json.loads((out / "student_angular_eval.json").read_text())
        assert np.isfinite(eval_blob["verification_accuracy"])
        assert np.isfinite(eval_blob["rank1"])

    def test_generates_data_once(self, tmp_path, monkeypatch):
        import spherekd.engine as engine_mod

        out = tmp_path / "run"
        assert run_cli("train-teacher", *toy_args(out)) == 0
        calls = []
        original = engine_mod.generate_dataset
        monkeypatch.setattr(
            engine_mod, "generate_dataset", lambda *args: calls.append(args) or original(*args)
        )
        code = run_cli(
            "distill", *toy_args(out), "--teacher", str(out / "teacher.ckpt"), "--kind", "l2"
        )
        assert code == 0
        assert len(calls) == 1
        assert (out / "student_l2_eval.json").exists()

    def test_missing_teacher_is_config_error(self, tmp_path, capsys):
        code = run_cli("distill", *toy_args(tmp_path / "run"), "--kind", "angular")
        assert code == 2
        assert "teacher" in capsys.readouterr().err


class TestEvaluate:
    def test_evaluates_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train-teacher", *toy_args(out)) == 0
        code = run_cli(
            "evaluate", *toy_args(out), "--checkpoint", str(out / "teacher.ckpt")
        )
        assert code == 0
        blob = json.loads((out / "evaluation.json").read_text())
        assert set(blob) == {"verification_accuracy", "verification_threshold", "rank1"}

    @pytest.mark.parametrize("override", BAD_VALUES)
    def test_bad_value_exits_2_before_reading_checkpoint(self, tmp_path, capsys, override):
        # the checkpoint does not exist: reading it would exit 3
        code = run_cli(
            "evaluate", "--set", override, "--out", str(tmp_path),
            "--checkpoint", str(tmp_path / "missing.ckpt"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert override.split("=")[0] in err
        assert "Traceback" not in err

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        code = run_cli(
            "evaluate", *toy_args(tmp_path / "run"),
            "--checkpoint", str(tmp_path / "missing.ckpt"),
        )
        assert code == 3


@pytest.fixture(scope="module")
def toy_teacher(tmp_path_factory):
    out = tmp_path_factory.mktemp("teacher")
    assert run_cli("train-teacher", *toy_args(out)) == 0
    return out / "teacher.ckpt"


class TestCheckpointTensors:
    """A checkpoint whose tensors do not fit the architecture is a config error."""

    FAULTS = {
        "missing": lambda tensors: tensors.pop("net.block2.bn1.running_var"),
        "wrong_shape": lambda tensors: tensors.update(
            {"net.block2.bn1.running_var": np.ones(5)}
        ),
    }

    @pytest.mark.parametrize("verb", ["evaluate", "distill"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_bad_tensor_exits_2_naming_it(self, tmp_path, capsys, toy_teacher, verb, fault):
        ckpt = load_checkpoint(toy_teacher)
        self.FAULTS[fault](ckpt.tensors)
        bad = save_checkpoint(tmp_path / "bad.ckpt", ckpt)
        flag = "--checkpoint" if verb == "evaluate" else "--teacher"
        capsys.readouterr()
        code = run_cli(verb, *toy_args(tmp_path / "run"), flag, str(bad))
        assert code == 2
        err = capsys.readouterr().err
        assert "net.block2.bn1.running_var" in err
        assert "Traceback" not in err


def _with_meta(path, meta: bytes) -> bytes:
    """The checkpoint file at `path` with its meta, the last record, replaced."""
    blob = path.read_bytes()
    old = json.dumps(load_checkpoint(path).meta, sort_keys=True, separators=(",", ":"))
    assert blob.endswith(old.encode("utf-8"))
    return blob[: -len(old) - 4] + struct.pack("<I", len(meta)) + meta


def _huge_first_tensor(path) -> bytes:
    """The checkpoint at `path` with its first tensor's two leading dims at 2^32 - 1."""
    blob = path.read_bytes()
    (name_len,) = struct.unpack_from("<I", blob, 80)  # after the 64-byte fingerprint
    dims = 84 + name_len + 4
    return blob[:dims] + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + blob[dims + 8 :]


class TestCorruptCheckpoint:
    """A checkpoint that does not follow the file format is a config error."""

    FAULTS = {
        "meta_not_json": lambda path: _with_meta(path, b"{not json"),
        "meta_not_utf8": lambda path: _with_meta(path, b'{"role":"\xff"}'),
        "meta_a_list": lambda path: _with_meta(path, b"[1,2]"),
        "fingerprint_not_ascii": lambda path: (
            path.read_bytes()[:12] + b"\xff" + path.read_bytes()[13:]
        ),
        "bytes_after_the_meta": lambda path: path.read_bytes() + b"\x00",
        "truncated": lambda path: path.read_bytes()[:-1],
        "dims_past_the_end": _huge_first_tensor,
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_exits_2_without_traceback(self, tmp_path, capsys, toy_teacher, fault):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(self.FAULTS[fault](toy_teacher))
        capsys.readouterr()
        code = run_cli("evaluate", *toy_args(tmp_path / "run"), "--checkpoint", str(bad))
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "evaluation.json").exists()


class TestEvaluateReadsOnlyTheNetwork:
    def test_non_finite_embeddings_exit_4_without_output(
        self, tmp_path, capfd, monkeypatch, toy_teacher
    ):
        ckpt = load_checkpoint(toy_teacher)
        weight = ckpt.tensors["net.head.weight"].copy()
        weight[0, 0] = np.nan
        ckpt.tensors["net.head.weight"] = weight
        bad = save_checkpoint(tmp_path / "nan.ckpt", ckpt)
        pools = []
        for path in ("sequential", "threads"):
            if path == "threads":  # the toy's 32 scored rows on two threads
                pools = threads_from_8_rows(monkeypatch)
            out = tmp_path / path
            capfd.readouterr()
            assert run_cli("evaluate", *toy_args(out), "--checkpoint", str(bad)) == 4
            err = capfd.readouterr().err
            assert pools == ([2] if path == "threads" else [])
            assert "non-finite embeddings" in err
            assert "Traceback" not in err
            assert not (out / "evaluation.json").exists()

    def test_classifier_weight_not_needed(self, tmp_path, toy_teacher):
        ckpt = load_checkpoint(toy_teacher)
        del ckpt.tensors["classifier.weight"]
        bare = save_checkpoint(tmp_path / "bare.ckpt", ckpt)
        for name, path in (("full", toy_teacher), ("bare", bare)):
            assert run_cli("evaluate", *toy_args(tmp_path / name), "--checkpoint", str(path)) == 0
        full = (tmp_path / "full" / "evaluation.json").read_bytes()
        assert (tmp_path / "bare" / "evaluation.json").read_bytes() == full


class TestCompare:
    def test_single_seed_report_shape(self, tmp_path):
        out = tmp_path / "matrix"
        code = run_cli("compare", *toy_args(out), "--seeds", "0")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["rows"]) == {"teacher", "self_studied", "l2", "angular"}
        for row in report["rows"].values():
            assert set(row) == {"verification_accuracy", "rank1"}

    def test_repeated_seeds_identical_report(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("compare", *toy_args(out_a), "--seeds", "1") == 0
        assert run_cli("compare", *toy_args(out_b), "--seeds", "1") == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_bad_seeds_rejected(self, tmp_path, capsys):
        code = run_cli("compare", *toy_args(tmp_path / "x"), "--seeds", "a,b")
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seeds", "0,0"],
            ["--parallel", "0"],
            ["--parallel", "-2"],
            ["--seeds", f"0,{2**64}"],  # 2^64 would train seed 0's cell again
            ["--seeds", ""],
        ],
    )
    def test_bad_flag_exits_2_before_training(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        code = run_cli("compare", *toy_args(out), *flags)
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not list(out.glob("seed*"))
        assert not out.exists() or not list(out.rglob("*"))  # not even effective_config.yaml

    @pytest.mark.parametrize(
        "faults, code, lines",
        [
            (
                {"angular": NumericError("injected"), "l2": OSError(28, "No space left on device")},
                3,
                ["seed 0 l2: i/o error: [Errno 28] No space left on device",
                 "seed 0 angular: numeric failure: injected"],
            ),
            ({"none": ConfigError("injected")}, 2, ["seed 0 self_studied: config error: injected"]),
            ({"l2": RuntimeError("injected")}, 4, ["seed 0 l2: RuntimeError: injected"]),
        ],
    )
    def test_failed_cells_exit_with_the_code_of_the_first(
        self, tmp_path, capsys, monkeypatch, faults, code, lines
    ):
        from spherekd import engine

        original = engine.train_student

        def failing(cfg, teacher_path, *args, **kwargs):
            if cfg.distill.kind in faults:
                raise faults[cfg.distill.kind]
            return original(cfg, teacher_path, *args, **kwargs)

        monkeypatch.setattr(engine, "train_student", failing)
        assert run_cli("compare", *toy_args(tmp_path / "x"), "--seeds", "0") == code
        assert capsys.readouterr().err.splitlines() == lines

    def test_dead_worker_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from spherekd import engine

        class DeadPool:
            """A pool whose worker died: every submit raises, as the real pool's do."""

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.setattr(engine, "process_pool", lambda workers: DeadPool())
        out = tmp_path / "x"
        code = run_cli("compare", *toy_args(out), "--seeds", "0,1", "--parallel", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("worker failure: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (out / "report.json").exists()


class TestGradCheck:
    def test_fresh_build_passes(self, capsys):
        code = run_cli("grad-check", "--module", "all", "--instances", "1")
        assert code == 0
        text = capsys.readouterr().out
        assert "max rel err" in text
        assert "gradient checks passed" in text

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_exits_2(self, capsys, instances):
        code = run_cli("grad-check", "--instances", instances)
        assert code == 2
        captured = capsys.readouterr()
        assert "--instances" in captured.err
        assert "passed" not in captured.out

    def test_module_filter(self, capsys):
        code = run_cli("grad-check", "--module", "losses", "--instances", "1")
        assert code == 0
        text = capsys.readouterr().out
        assert "angular-distill-loss" in text
        assert "matmul" not in text


class TestUsage:
    def test_unknown_verb_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_config_file_plus_override(self, tmp_path):
        cfg_file = tmp_path / "config.yaml"
        body = "\n".join(
            [
                "seed: 3",
                "data:",
                "  num_train_classes: 8",
                "  num_test_classes: 4",
                "  samples_per_class: 6",
                "  latent_dim: 8",
                "  num_distractors: 8",
                "  pairs_per_side: 10",
                "  folds: 2",
                "  image_size: 8",
                "arch:",
                "  input_size: 8",
                "  num_stages: 2",
                "  teacher_channels: [4, 6]",
                "  student_channels: [2, 3]",
                "  block_depth: 1",
                "  embedding_dim: 4",
            ]
        )
        cfg_file.write_text(body + "\n")
        out = tmp_path / "out"
        code = run_cli(
            "gen-data", "--config", str(cfg_file), "--set", "seed=5", "--out", str(out)
        )
        assert code == 0
        effective = (out / "effective_config.yaml").read_text()
        assert "seed: 5" in effective  # override wins over file
        assert cfg_file.read_text() == body + "\n"  # input untouched

    def test_effective_config_echo(self, tmp_path, capsys):
        out = tmp_path / "data"
        run_cli("gen-data", *toy_args(out))
        text = capsys.readouterr().out
        assert "effective config" in text
        assert "teacher_channels" in text
