"""Verification and identification metrics against brute-force oracles."""

import os
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from spherekd import evaluate, parallel
from spherekd.config import DataConfig
from spherekd.data import (
    IdentificationProtocol,
    build_identification_protocol,
    build_verification_protocol,
    generate_dataset,
)
from spherekd.errors import DimensionError, NumericError
from spherekd.evaluate import (
    _accuracy_at,
    _best_threshold,
    _threshold_candidates,
    extract_embeddings,
    rank1_identification,
    verification_accuracy,
)
from spherekd.nets import ArchConfig, StagedNetwork, freeze
from spherekd.rng import substream

from .conftest import threads_from_8_rows


def tiny_dataset(seed=0, **kw):
    defaults = dict(
        num_train_classes=3,
        num_test_classes=4,
        samples_per_class=5,
        latent_dim=6,
        noise_sigma=0.3,
        image_size=8,
        num_distractors=10,
    )
    defaults.update(kw)
    return generate_dataset(seed, DataConfig(**defaults))


def random_unit_embeddings(n, d, seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(n, d))
    return e / np.linalg.norm(e, axis=1, keepdims=True)


def quantized_embeddings(n, d, seed):
    """Entries in {-0.5, -0.25, 0, 0.25, 0.5}: every dot product is exact in
    any summation order, and many pairs share a similarity exactly."""
    return np.random.default_rng(seed).integers(-2, 3, size=(n, d)) / 4.0


# -- independent oracles ---------------------------------------------------------


def oracle_verification(embeddings, protocol):
    """Naive re-implementation: loop folds, candidates, and pairs.

    Similarities use the same elementwise multiply-sum as the production
    path; the sweep/cross-validation logic being checked is all loops.
    """
    sims = [
        float(np.sum(embeddings[a] * embeddings[b]))
        for a, b in zip(protocol.index_a, protocol.index_b)
    ]
    accs, thresholds = [], []
    for f in range(protocol.folds):
        train = [(s, bool(t)) for s, t, g in zip(sims, protocol.same, protocol.fold) if g != f]
        held = [(s, bool(t)) for s, t, g in zip(sims, protocol.same, protocol.fold) if g == f]
        uniq = sorted(set(s for s, _ in train))
        candidates = [-1.0] + [(u + v) / 2.0 for u, v in zip(uniq[:-1], uniq[1:])] + [1.0]
        best_t, best_acc = None, -1.0
        for t in candidates:
            acc = sum(1 for s, same in train if (s >= t) == same) / len(train)
            if acc > best_acc:  # strict: ties keep the earlier (smaller) threshold
                best_acc, best_t = acc, t
        thresholds.append(best_t)
        accs.append(sum(1 for s, same in held if (s >= best_t) == same) / len(held))
    return float(np.mean(accs)), float(np.mean(thresholds))


def oracle_rank1(embeddings, protocol):
    """Naive nearest-neighbor identification with tie-as-failure."""
    correct = 0
    for p_idx, p_cls in zip(protocol.probe_indices, protocol.probe_classes):
        best_sims = [float(np.dot(embeddings[p_idx], embeddings[g])) for g in protocol.gallery_indices]
        best = max(best_sims)
        winners = [i for i, s in enumerate(best_sims) if s == best]
        if len(winners) != 1:
            continue
        if int(protocol.gallery_classes[winners[0]]) == int(p_cls):
            correct += 1
    return correct / len(protocol.probe_indices)


class TestVerificationAccuracy:
    def test_perfectly_separable(self):
        ds = tiny_dataset(num_test_classes=2, samples_per_class=6)
        prot = build_verification_protocol(ds, pairs_per_side=8, folds=2, seed=0)
        e = np.zeros((ds.num_samples, 4))
        classes = sorted(ds.test_classes.tolist())
        for i in ds.test_indices:
            e[i] = [1.0, 0, 0, 0] if ds.labels[i] == classes[0] else [-1.0, 0, 0, 0]
        acc, threshold = verification_accuracy(e, prot)
        assert acc == 1.0
        assert -1.0 < threshold < 1.0

    def test_identical_embeddings_give_half(self):
        ds = tiny_dataset()
        prot = build_verification_protocol(ds, pairs_per_side=10, folds=2, seed=1)
        e = np.tile(random_unit_embeddings(1, 8, 0), (ds.num_samples, 1))
        acc, _ = verification_accuracy(e, prot)
        assert acc == pytest.approx(0.5, abs=1e-12)

    def test_matches_oracle_over_20_seeds(self):
        ds = tiny_dataset()
        for seed in range(20):
            prot = build_verification_protocol(ds, pairs_per_side=20, folds=2, seed=seed)
            assert prot.num_pairs <= 50
            e = random_unit_embeddings(ds.num_samples, 8, seed + 100)
            got = verification_accuracy(e, prot)
            want = oracle_verification(e, prot)
            assert got[0] == want[0]
            assert got[1] == want[1]

    def test_matches_oracle_with_exact_ties(self):
        ds = tiny_dataset(num_test_classes=6, samples_per_class=8)
        for seed in range(20):
            prot = build_verification_protocol(ds, pairs_per_side=60, folds=3, seed=seed)
            e = quantized_embeddings(ds.num_samples, 3, seed + 200)
            sims = np.sum(e[prot.index_a] * e[prot.index_b], axis=1)
            assert len(np.unique(sims)) < prot.num_pairs // 4  # heavily tied
            assert verification_accuracy(e, prot) == oracle_verification(e, prot)

    def test_threshold_sweep_matches_candidate_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            sims = rng.integers(-4, 5, size=n) / 4.0  # few distinct values
            same = rng.random(n) < rng.random()
            candidates = _threshold_candidates(sims)
            accs = [_accuracy_at(t, sims, same) for t in candidates]
            assert _best_threshold(sims, same) == candidates[int(np.argmax(accs))]

    def test_random_embeddings_near_chance(self):
        ds = tiny_dataset(num_test_classes=6, samples_per_class=8)
        accs = []
        for seed in range(5):
            prot = build_verification_protocol(ds, pairs_per_side=60, folds=3, seed=seed)
            e = random_unit_embeddings(ds.num_samples, 16, seed)
            accs.append(verification_accuracy(e, prot)[0])
        assert abs(float(np.mean(accs)) - 0.5) <= 0.1

    def test_accuracy_in_unit_interval(self):
        ds = tiny_dataset()
        prot = build_verification_protocol(ds, pairs_per_side=10, folds=2, seed=2)
        e = random_unit_embeddings(ds.num_samples, 8, 3)
        acc, _ = verification_accuracy(e, prot)
        assert 0.0 <= acc <= 1.0

    def test_missing_embedding_is_index_error(self):
        ds = tiny_dataset()
        prot = build_verification_protocol(ds, pairs_per_side=10, folds=2, seed=3)
        too_few = random_unit_embeddings(3, 8, 4)  # protocol indexes beyond row 3
        with pytest.raises(IndexError):
            verification_accuracy(too_few, prot)


class TestRank1Identification:
    def test_exact_match_with_orthogonal_distractors(self):
        ds = tiny_dataset(num_test_classes=4, samples_per_class=3, num_distractors=5)
        prot = build_identification_protocol(ds, seed=0)
        dim = 4 + 5
        e = np.zeros((ds.num_samples, dim))
        axis = {int(c): i for i, c in enumerate(sorted(ds.test_classes.tolist()))}
        for i in ds.test_indices:
            e[i, axis[int(ds.labels[i])]] = 1.0
        for k, i in enumerate(ds.indices_of(ds.distractor_classes)):
            e[i, 4 + k] = 1.0
        assert rank1_identification(e, prot) == 1.0

    def test_identical_embeddings_all_fail_by_tie(self):
        ds = tiny_dataset()
        prot = build_identification_protocol(ds, seed=1)
        e = np.tile(random_unit_embeddings(1, 6, 0), (ds.num_samples, 1))
        assert rank1_identification(e, prot) == 0.0

    def test_matches_oracle_over_20_seeds(self):
        ds = tiny_dataset(num_test_classes=5, samples_per_class=4, num_distractors=10)
        prot = build_identification_protocol(ds, seed=2)
        assert len(prot.gallery_indices) <= 20
        for seed in range(20):
            e = random_unit_embeddings(ds.num_samples, 8, seed + 500)
            assert rank1_identification(e, prot) == oracle_rank1(e, prot)

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_blocks_match_oracle_with_tied_rows(self, block, monkeypatch):
        monkeypatch.setattr(evaluate, "PROBE_BLOCK", block)
        ds = tiny_dataset(num_test_classes=5, samples_per_class=4, num_distractors=10)
        prot = build_identification_protocol(ds, seed=2)
        assert block == 1000 or block < len(prot.probe_indices)
        ties = 0
        for seed in range(20):
            e = quantized_embeddings(ds.num_samples, 3, seed + 700)
            # duplicate gallery rows tie exactly with their copies
            e[prot.gallery_indices[1::2]] = e[prot.gallery_indices[::2][: len(prot.gallery_indices) // 2]]
            sims = e[prot.probe_indices] @ e[prot.gallery_indices].T
            ties += int(np.sum(np.sum(sims == sims.max(axis=1, keepdims=True), axis=1) > 1))
            assert rank1_identification(e, prot) == oracle_rank1(e, prot)
        assert ties > 0

    def test_monotone_under_added_distractors(self):
        ds = tiny_dataset(num_test_classes=5, samples_per_class=4, num_distractors=12)
        prot = build_identification_protocol(ds, seed=3)
        e = random_unit_embeddings(ds.num_samples, 8, 9)
        # same embeddings, gallery grown distractor by distractor
        distractor_mask = np.array(
            [int(c) not in set(ds.test_classes.tolist()) for c in prot.gallery_classes]
        )
        base_positions = np.nonzero(~distractor_mask)[0]
        extra_positions = np.nonzero(distractor_mask)[0]
        prev = None
        for k in range(0, len(extra_positions) + 1, 3):
            keep = np.concatenate([base_positions, extra_positions[:k]])
            sub = IdentificationProtocol(
                gallery_indices=prot.gallery_indices[keep],
                gallery_classes=prot.gallery_classes[keep],
                probe_indices=prot.probe_indices,
                probe_classes=prot.probe_classes,
            )
            rate = rank1_identification(e, sub)
            if prev is not None:
                assert rate <= prev
            prev = rate


class TestExtractEmbeddings:
    ARCH = ArchConfig(
        input_size=8, in_channels=1, num_stages=2, teacher_channels=(4, 6),
        student_channels=(2, 3), block_depth=1, embedding_dim=4,
    )

    def _net(self):
        net = StagedNetwork(self.ARCH, self.ARCH.teacher_channels, substream(0, "t"))
        freeze(net)
        return net

    def test_unit_norms(self):
        net = self._net()
        ds = tiny_dataset()
        table = extract_embeddings(net, ds.images)
        norms = np.linalg.norm(table, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_repeated_call_identical(self):
        net = self._net()
        ds = tiny_dataset()
        t1 = extract_embeddings(net, ds.images)
        t2 = extract_embeddings(net, ds.images)
        assert np.array_equal(t1, t2)

    def test_selected_rows_bitwise_and_zero_elsewhere(self):
        net = self._net()
        ds = tiny_dataset(num_distractors=70)  # 105 rows, in batches of 32, 32 and 41
        full = extract_embeddings(net, ds.images)
        # bitwise equality across batch compositions assumes the BLAS gives
        # each GEMM row a result that does not depend on the other rows; seen
        # to hold on scipy-openblas 0.3.31
        subsets = (np.array([11, 0, 5, 6, 7, 30]), np.random.default_rng(1).permutation(105)[:60])
        for rows in subsets:
            part = extract_embeddings(net, ds.images, rows)
            assert part.shape == full.shape
            assert np.array_equal(part[rows], full[rows])
            others = np.setdiff1d(np.arange(ds.num_samples), rows)
            assert not part[others].any()

    def test_non_finite_embedding_is_numeric_error(self):
        net = self._net()
        ds = tiny_dataset()
        net.head_weight.data[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            extract_embeddings(net, ds.images, np.array([0, 3]))


class TestPoolPath:
    """Large extractions embedded on a pool of threads of the calling process."""

    ARCH = TestExtractEmbeddings.ARCH
    # unsorted; 50 rows per thread, in batches of 32 and 18
    ROWS = np.random.default_rng(0).permutation(105)[:100]

    def _net(self, width="teacher_channels"):
        net = StagedNetwork(self.ARCH, getattr(self.ARCH, width), substream(0, width))
        freeze(net)
        return net

    @staticmethod
    def _dataset():
        return tiny_dataset(num_distractors=70)  # 105 rows

    @pytest.mark.parametrize("width", ["teacher_channels", "student_channels"])
    def test_table_bitwise_equal_to_sequential(self, monkeypatch, width):
        # assumes dgemm results do not depend on the BLAS thread count; seen
        # to hold on scipy-openblas 0.3.31
        net, ds = self._net(width), self._dataset()
        sequential = extract_embeddings(net, ds.images, self.ROWS)
        started = threads_from_8_rows(monkeypatch)
        blas_seen = []
        run = evaluate.frozen_pass
        monkeypatch.setattr(
            evaluate, "frozen_pass", lambda *a: blas_seen.append(parallel.blas_threads()) or run(*a)
        )
        threaded = extract_embeddings(net, ds.images, self.ROWS)
        assert started == [2]
        assert blas_seen == [1, 1]
        assert threaded.tobytes() == sequential.tobytes()

    def test_part_ending_in_one_row_bitwise_equal_to_sequential(self, monkeypatch):
        # two threads split 66 rows into parts of 33 and embed them 32 rows at
        # a time, so each part ends in one row, which numpy multiplies by gemv
        arch = ArchConfig()
        net = StagedNetwork(arch, arch.teacher_channels, substream(0, "teacher-init"))
        freeze(net)
        side = arch.input_size
        images = np.random.default_rng(2).normal(size=(66, side, side, arch.in_channels))
        sequential = extract_embeddings(net, images)
        started = threads_from_8_rows(monkeypatch)
        threaded = extract_embeddings(net, images)
        assert started == [2]
        assert threaded.tobytes() == sequential.tobytes()

    @parallel.hold_blas_threads(2)  # so that a count left at one shows
    def test_failures_raise_and_restore_blas_threads(self, monkeypatch):
        prior = parallel.blas_threads()
        started = threads_from_8_rows(monkeypatch)
        net, ds = self._net(), self._dataset()
        two_channels = np.concatenate([ds.images, ds.images], axis=3)
        calls = [
            lambda: extract_embeddings(net, ds.images, self.ROWS),
            lambda: pytest.raises(DimensionError, extract_embeddings, net, two_channels, self.ROWS),
        ]
        net_nan = self._net()
        net_nan.head_weight.data[0, 0] = np.nan
        calls.append(
            lambda: pytest.raises(NumericError, extract_embeddings, net_nan, ds.images, self.ROWS)
        )
        for call in calls:
            call()
            assert parallel.blas_threads() == prior
        assert started == [2, 2, 2]

    def test_no_thread_at_one_blas_thread(self, monkeypatch):
        net, ds = self._net(), self._dataset()
        sequential = extract_embeddings(net, ds.images, self.ROWS)
        started = threads_from_8_rows(monkeypatch)
        monkeypatch.setattr(evaluate, "blas_threads", lambda: 1)
        table = extract_embeddings(net, ds.images, self.ROWS)
        assert started == []
        assert table.tobytes() == sequential.tobytes()

    def test_script_without_main_guard_runs_once(self, tmp_path):
        # a spawned worker would import the script again and run its body once more
        log = tmp_path / "runs.txt"
        script = tmp_path / "no_guard.py"
        script.write_text(
            textwrap.dedent(
                f"""\
                import numpy as np
                from spherekd import evaluate
                from spherekd.nets import ArchConfig, StagedNetwork, freeze
                from spherekd.rng import substream

                with open({str(log)!r}, "a") as fh:
                    fh.write("ran\\n")
                evaluate.ROWS_PER_WORKER = 8
                evaluate.cpu_count = evaluate.blas_threads = lambda: 2
                arch = ArchConfig(**{asdict(self.ARCH)!r})
                net = StagedNetwork(arch, arch.teacher_channels, substream(0, "t"))
                freeze(net)
                evaluate.extract_embeddings(net, np.zeros((32, 8, 8, 1)))
                """
            )
        )
        env = dict(os.environ, PYTHONPATH=str(Path(evaluate.__file__).parents[1]))
        subprocess.run([sys.executable, str(script)], env=env, check=True, timeout=120)
        assert log.read_text() == "ran\n"
