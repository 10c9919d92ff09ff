"""Synthetic identity data: generation, protocols, and on-disk formats."""

from dataclasses import fields, replace

import numpy as np
import pytest

from spherekd import data
from spherekd.config import DataConfig
from spherekd.data import (
    build_identification_protocol,
    build_verification_protocol,
    dataset_params,
    generate_dataset,
    save_identification_protocol,
    save_verification_protocol,
)
from spherekd.errors import ConfigError


def small_dataset(seed=0, **kw):
    defaults = dict(
        num_train_classes=6,
        num_test_classes=4,
        samples_per_class=5,
        latent_dim=8,
        noise_sigma=0.3,
        image_size=8,
        num_distractors=10,
    )
    defaults.update(kw)
    return generate_dataset(seed, DataConfig(**defaults))


class TestGeneration:
    def test_zero_noise_collapses_classes(self):
        ds = small_dataset(noise_sigma=0.0)
        for c in ds.train_classes:
            idx = ds.indices_of(np.array([c]))
            first = ds.images[idx[0]]
            for i in idx[1:]:
                assert np.array_equal(ds.images[i], first)

    def test_same_seed_bitwise_identical(self):
        a, b = small_dataset(seed=3), small_dataset(seed=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a, b = small_dataset(seed=3), small_dataset(seed=4)
        assert not np.array_equal(a.images, b.images)

    def test_default_latent_geometry(self):
        # within-class direction agreement must beat between-class agreement,
        # here at the harshest noise level anyone would configure
        ds = generate_dataset(0, DataConfig(
            num_train_classes=64, num_test_classes=16, samples_per_class=20,
            latent_dim=16, noise_sigma=0.3, image_size=16, num_distractors=500,
        ))
        lat, labels = per_class_reference(0, noise_sigma=0.3)
        assert np.array_equal(labels, ds.labels)
        within, between = [], []
        train_idx = ds.train_indices
        rng = np.random.default_rng(0)
        sample = rng.choice(len(train_idx), size=400)
        for k in range(0, len(sample) - 1, 2):
            i, j = train_idx[sample[k]], train_idx[sample[k + 1]]
            if i == j:
                continue
            cos = float(lat[i] @ lat[j])
            (within if labels[i] == labels[j] else between).append(cos)
        for c in ds.train_classes[:10]:
            idx = ds.indices_of(np.array([c]))
            within.append(float(lat[idx[0]] @ lat[idx[1]]))
        assert np.mean(within) > np.mean(between)

    def test_images_standardized_and_finite(self):
        ds = small_dataset()
        flat = ds.images.reshape(ds.num_samples, -1)
        assert np.all(np.isfinite(flat))
        np.testing.assert_allclose(flat.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(flat.std(axis=1), 1.0, atol=1e-9)

    def test_open_set_separation(self):
        ds = small_dataset()
        train = set(ds.train_classes.tolist())
        test = set(ds.test_classes.tolist())
        distract = set(ds.distractor_classes.tolist())
        assert not (train & test) and not (train & distract) and not (test & distract)

    def test_dataset_params_name_exactly_the_keys_the_generator_reads(self):
        cfg = DataConfig(
            num_train_classes=3, num_test_classes=2, samples_per_class=3, latent_dim=4,
            noise_sigma=0.3, image_size=4, num_distractors=2, renderer_hidden=5,
            pairs_per_side=2, folds=2,
        )
        base = generate_dataset(0, cfg)
        keys = dataset_params(0, cfg)
        assert base.params == keys
        for field in fields(DataConfig):
            value = getattr(cfg, field.name)
            value = value * 2 if isinstance(value, float) else value + 1
            other = generate_dataset(0, replace(cfg, **{field.name: value}))
            same = np.array_equal(other.images, base.images)
            same &= np.array_equal(other.labels, base.labels)
            assert same != (field.name in keys), field.name


def per_class_reference(seed, num_train_classes=64, num_test_classes=16, samples_per_class=20,
                        latent_dim=16, noise_sigma=0.15, num_distractors=500):
    """Latents and labels drawn one class at a time, then one distractor at a time."""
    from spherekd.rng import substream

    n_classes = num_train_classes + num_test_classes + num_distractors
    prototypes = substream(seed, "data-prototypes").normal(size=(n_classes, latent_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    rng = substream(seed, "data-noise")
    latents, labels = [], []
    for class_id in range(n_classes):
        n = samples_per_class if class_id < num_train_classes + num_test_classes else 1
        latent = prototypes[class_id] + noise_sigma * rng.normal(size=(n, latent_dim))
        latent /= np.linalg.norm(latent, axis=1, keepdims=True)
        latents.append(latent)
        labels.append(np.full(n, class_id, dtype=np.int64))
    return np.concatenate(latents), np.concatenate(labels)


class TestGeneratorMatchesPerClassLoop:
    @pytest.mark.parametrize(
        "kw", [{}, {"num_distractors": 0}, {"samples_per_class": 2}], ids=str
    )
    def test_bitwise(self, kw):
        self.assert_matches_reference(kw)

    # 2,100 rows: chunks of 640 leave 180, chunks of 2,099 leave a single row
    @pytest.mark.parametrize("chunk", [640, 2099])
    def test_chunks_render_as_one_block(self, monkeypatch, chunk):
        monkeypatch.setattr(data, "RENDER_CHUNK", chunk)
        self.assert_matches_reference({})

    @pytest.mark.parametrize(
        "n, min_last, bounds",
        [
            (0, 2, [0]),
            (1, 2, [0, 1]),
            (64, 2, [0, 32, 64]),
            (65, 2, [0, 32, 65]),
            (66, 2, [0, 32, 64, 66]),
            (47, 16, [0, 47]),
            (48, 16, [0, 32, 48]),
        ],
    )
    def test_chunk_bounds_join_a_short_last_chunk(self, n, min_last, bounds):
        assert data.chunk_bounds(n, 32, min_last) == bounds

    @staticmethod
    def assert_matches_reference(kw):
        from spherekd.rng import substream

        ds = generate_dataset(3, DataConfig(**kw))
        latents, labels = per_class_reference(3, **kw)
        assert ds.labels.dtype == np.int64
        assert np.array_equal(ds.labels, labels)
        # the generator keeps no latents: its images tie them to the reference's
        rng = substream(3, "data-renderer")
        w1 = rng.normal(0.0, 1.0 / np.sqrt(16), size=(16, 64))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(64), size=(64, 256))
        assert ds.images.tobytes() == data._render(latents, w1, w2, 16).tobytes()

    @pytest.mark.parametrize("chunk", [data.RENDER_CHUNK, 1000])
    def test_fewer_distractors_give_a_prefix(self, monkeypatch, chunk):
        monkeypatch.setattr(data, "RENDER_CHUNK", chunk)
        small = generate_dataset(0, DataConfig(num_distractors=500))
        large = generate_dataset(0, DataConfig(num_distractors=2000))
        n = small.num_samples
        assert small.images.tobytes() == large.images[:n].tobytes()
        assert np.array_equal(small.labels, large.labels[:n])


class TestVerificationProtocol:
    def test_pair_arithmetic(self):
        ds = generate_dataset(0, DataConfig(
            num_train_classes=4, num_test_classes=8, samples_per_class=12,
            latent_dim=8, noise_sigma=0.3, image_size=8, num_distractors=0,
        ))
        prot = build_verification_protocol(ds, pairs_per_side=300, folds=10, seed=0)
        assert prot.num_pairs == 600
        for f in range(10):
            assert int(np.sum(prot.fold == f)) == 60

    def test_pairs_reference_test_samples_only(self):
        ds = small_dataset()
        prot = build_verification_protocol(ds, pairs_per_side=10, folds=2, seed=1)
        test_idx = set(ds.test_indices.tolist())
        for a, b in zip(prot.index_a, prot.index_b):
            assert int(a) in test_idx and int(b) in test_idx

    def test_label_contract(self):
        ds = small_dataset()
        prot = build_verification_protocol(ds, pairs_per_side=10, folds=2, seed=2)
        for a, b, same in zip(prot.index_a, prot.index_b, prot.same):
            if same:
                assert ds.labels[a] == ds.labels[b]
            else:
                assert ds.labels[a] != ds.labels[b]

    def test_balanced_within_folds(self):
        ds = small_dataset()
        prot = build_verification_protocol(ds, pairs_per_side=10, folds=2, seed=3)
        for f in range(prot.folds):
            mask = prot.fold == f
            assert int(prot.same[mask].sum()) == int((~prot.same[mask]).sum())

    def test_deterministic_per_seed(self):
        ds = small_dataset()
        p1 = build_verification_protocol(ds, pairs_per_side=10, folds=2, seed=4)
        p2 = build_verification_protocol(ds, pairs_per_side=10, folds=2, seed=4)
        assert np.array_equal(p1.index_a, p2.index_a)
        assert np.array_equal(p1.index_b, p2.index_b)
        assert np.array_equal(p1.same, p2.same)

    def test_insufficient_samples_rejected(self):
        ds = small_dataset(num_test_classes=2, samples_per_class=2)
        with pytest.raises(ConfigError):
            build_verification_protocol(ds, pairs_per_side=100, folds=2, seed=0)


class TestIdentificationProtocol:
    def test_one_enrollment_per_test_class(self):
        ds = small_dataset()
        prot = build_identification_protocol(ds, seed=0)
        test_classes = set(ds.test_classes.tolist())
        enrolled = [int(c) for c in prot.gallery_classes if int(c) in test_classes]
        assert sorted(enrolled) == sorted(test_classes)

    def test_probes_are_remaining_test_samples(self):
        ds = small_dataset()
        prot = build_identification_protocol(ds, seed=0)
        together = set(prot.probe_indices.tolist()) | {
            int(i)
            for i, c in zip(prot.gallery_indices, prot.gallery_classes)
            if int(c) in set(ds.test_classes.tolist())
        }
        assert together == set(ds.test_indices.tolist())
        assert not (set(prot.probe_indices.tolist()) & set(prot.gallery_indices.tolist()))

    def test_distractors_disjoint(self):
        ds = small_dataset()
        prot = build_identification_protocol(ds, seed=0)
        train_test = set(ds.train_classes.tolist()) | set(ds.test_classes.tolist())
        distractor_gallery = [
            int(c) for c in prot.gallery_classes if int(c) not in set(ds.test_classes.tolist())
        ]
        assert len(distractor_gallery) == 10
        assert not (set(distractor_gallery) & train_test)


class TestProtocolsMatchPerClassConstruction:
    """Protocols read from the labels equal the per-class `indices_of` build."""

    @staticmethod
    def reference_identification(ds, seed):
        from spherekd.rng import substream

        rng = substream(seed, "protocol-identification")
        gallery_idx, gallery_cls, probe_idx, probe_cls = [], [], [], []
        for c in ds.test_classes:
            idx = ds.indices_of(np.array([c]))
            enrolled = idx[rng.integers(0, len(idx))]
            gallery_idx.append(enrolled)
            gallery_cls.append(int(c))
            for other in idx:
                if other != enrolled:
                    probe_idx.append(other)
                    probe_cls.append(int(c))
        for c in ds.distractor_classes:
            idx = ds.indices_of(np.array([c]))
            gallery_idx.extend(idx.tolist())
            gallery_cls.extend([int(c)] * len(idx))
        return [np.array(v, dtype=np.int64) for v in (gallery_idx, gallery_cls, probe_idx, probe_cls)]

    @pytest.mark.parametrize("num_distractors", [0, 37, 2000])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_verification_positives_bitwise(self, seed, num_distractors):
        from spherekd.rng import substream

        ds = small_dataset(seed, num_distractors=num_distractors)
        prot = build_verification_protocol(ds, pairs_per_side=20, folds=4, seed=seed)
        positives = []
        for c in ds.test_classes:
            idx = ds.indices_of(np.array([c]))
            for i in range(len(idx)):
                positives += [(idx[i], idx[j]) for j in range(i + 1, len(idx))]
        rng = substream(seed, "protocol-verification")
        drawn = np.array(positives, dtype=np.int64)[rng.permutation(len(positives))[:20]]
        fold_major = drawn[np.argsort(np.arange(20) % 4, kind="stable")]
        got = np.stack([prot.index_a[prot.same], prot.index_b[prot.same]], axis=1)
        assert got.dtype == np.int64
        assert np.array_equal(got, fold_major)
        # the 20 positives then the 20 negatives, in the same fold-major order
        order = np.argsort(np.tile(np.arange(20) % 4, 2), kind="stable")
        assert np.array_equal(prot.same, np.repeat([True, False], 20)[order])

    @pytest.mark.parametrize("num_distractors", [0, 37, 2000])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_identification_bitwise(self, seed, num_distractors):
        ds = small_dataset(seed, num_distractors=num_distractors)
        prot = build_identification_protocol(ds, seed=seed)
        expected = self.reference_identification(ds, seed)
        got = [prot.gallery_indices, prot.gallery_classes, prot.probe_indices, prot.probe_classes]
        for g, e in zip(got, expected):
            assert g.dtype == np.int64
            assert np.array_equal(g, e)


class TestOnDiskFormats:
    def test_verification_file_roundtrip(self, tmp_path):
        ds = small_dataset()
        prot = build_verification_protocol(ds, pairs_per_side=10, folds=2, seed=6)
        path = save_verification_protocol(prot, tmp_path / "verification.txt")
        assert path.read_text().split("\n")[0] == f"# verification folds=2 pairs={prot.num_pairs}"
        rows = np.loadtxt(path, dtype=np.int64, skiprows=1)
        assert np.array_equal(rows[:, 0], prot.index_a)
        assert np.array_equal(rows[:, 1], prot.index_b)
        assert np.array_equal(rows[:, 2], prot.same)

    def test_identification_file_roundtrip(self, tmp_path):
        ds = small_dataset()
        prot = build_identification_protocol(ds, seed=7)
        path = save_identification_protocol(prot, tmp_path / "identification.txt")
        header = f"# identification gallery={len(prot.gallery_indices)} probes={len(prot.probe_indices)}"
        assert path.read_text().split("\n")[0] == header
        rows = np.loadtxt(path, dtype=str, skiprows=1)
        gallery, probe = rows[rows[:, 0] == "gallery"], rows[rows[:, 0] == "probe"]
        assert len(gallery) + len(probe) == len(rows)
        assert np.array_equal(gallery[:, 1].astype(np.int64), prot.gallery_indices)
        assert np.array_equal(gallery[:, 2].astype(np.int64), prot.gallery_classes)
        assert np.array_equal(probe[:, 1].astype(np.int64), prot.probe_indices)
        assert np.array_equal(probe[:, 2].astype(np.int64), prot.probe_classes)

    @pytest.mark.parametrize(
        "save, build",
        [
            (
                save_verification_protocol,
                lambda ds, seed: build_verification_protocol(ds, pairs_per_side=10, folds=2, seed=seed),
            ),
            (save_identification_protocol, lambda ds, seed: build_identification_protocol(ds, seed=seed)),
        ],
    )
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, save, build):
        import builtins

        import spherekd.checkpoint as checkpoint_mod

        path = save(build(small_dataset(seed=1), 1), tmp_path / "file")
        before = path.read_bytes()
        written = []

        class HalfWriter:
            """A file that writes half of what it is given, then fails."""

            def __init__(self, path, mode):
                self.fh = builtins.open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                written.append(len(data) // 2)
                raise OSError("disk full")

        monkeypatch.setattr(checkpoint_mod, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save(build(small_dataset(seed=2), 2), path)
        assert written and written[0] > 0  # the new file was partly written
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
