"""Synthetic data generation, targeted augmentation, and MIDS1 round-trips."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from pfnn import datagen
from pfnn.datagen import (
    BLOB_INTENSITY,
    BLOB_RADIUS,
    CLASS_NAMES,
    MAGIC,
    GenSpec,
    LabeledImageSet,
    augment_to_share,
    class_distribution,
    generate,
    holdout_extract,
    read_dataset,
    write_dataset,
)
from pfnn.imaging import bilinear_resize

from oracles import augment_by_image, flip_h, flip_v, rot90k, shift_clamped


def data_digest(data: LabeledImageSet) -> str:
    digest = hashlib.sha256(data.images.tobytes())
    digest.update(data.labels.tobytes())
    return digest.hexdigest()


# sha256 of image bytes then label bytes, pinned from the one-image-at-a-time
# renderer; the larger specs span several generate chunks
GOLDEN = {
    "side8-two-chunks": (
        GenSpec((100, 400, 600), side=8, seed=0),
        "163018258b18352ec26c4b38070a9ba18ab7798bb254aecb5706b31155594b9a"),
    "side9": (
        GenSpec((5, 6, 7), side=9, seed=1),
        "6fcabfa4df5d2b37bd371646d49a3bb7d197cf3da94388f7b433b17c5b64ecdf"),
    "side16": (
        GenSpec((10, 20, 40), side=16, seed=2),
        "ec7e3cb305d15dc00a87a485aeeca31d625315ed1b9ffb254f733a066f9b4aac"),
    "side32-three-chunks": (
        GenSpec((20, 40, 70), side=32, seed=3),
        "c74e8328dae18d07957c7d548bdbf477efe67f928776223254cf8930e29856fd"),
    "side64-three-chunks": (
        GenSpec((10, 10, 20), side=64, seed=4),
        "3bb65ba5e3f27641061e9f5695a6fc1f51d2003b8d6c821b44d6cc0bad14483c"),
    "single-class": (
        GenSpec((0, 0, 9), side=12, seed=5),
        "62bbaeffe539ad27804a364a47d68e41029ba97fe61223466f8114fd4bd07f56"),
    "zero-count-class": (
        GenSpec((4, 0, 6), side=16, seed=6),
        "3c7f174af445a1ab0f4329baf45f93555f1ba79294b16f303de009118c1a182e"),
    "normal-chunk-then-malignant": (
        GenSpec((70, 0, 5), side=32, seed=11),
        "d75e22ded5c01b59f23bed5467a17cc4b8d86bcaeba972553dbec5cc5e4e91ac"),
    "custom-noise-spike": (
        GenSpec((3, 3, 3), side=20, seed=7, noise_level=0.2, spike_intensity=(0.5, 0.6)),
        "4665a27d60460d4589953bd58754a6776247a2e2e263fe49e86e4ebde89cd3e2"),
}


def render_by_image(spec: GenSpec) -> np.ndarray:
    """Reference renderer: one image at a time, the same draws and arithmetic."""
    side = spec.side
    labels = np.repeat(np.arange(3), spec.counts)
    streams = np.random.SeedSequence(spec.seed).spawn(len(labels))
    yy, xx = np.mgrid[0:side, 0:side]
    images = []
    for label, stream in zip(labels, streams):
        rng = np.random.default_rng(stream)
        img = bilinear_resize(rng.uniform(0.15, 0.45, (4, 4)), side, side)
        img += rng.normal(0.0, spec.noise_level, (side, side))
        if label >= 1:
            amp = rng.uniform(*BLOB_INTENSITY)
            sigma = rng.uniform(*BLOB_RADIUS)
            cy = rng.uniform(0.25 * side, 0.75 * side)
            cx = rng.uniform(0.25 * side, 0.75 * side)
            img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))
        if label == 2:
            for _ in range(int(rng.integers(1, 3))):
                y, x = rng.integers(1, side - 1, 2)
                img[y, x] = rng.uniform(*spec.spike_intensity)
        images.append(np.clip(img, 0.0, 1.0).astype(np.float32)[..., None])
    return np.stack(images)


class TestGenerate:
    @pytest.mark.parametrize("spec,digest", GOLDEN.values(), ids=GOLDEN)
    def test_golden_digest(self, spec, digest):
        assert data_digest(generate(spec)) == digest

    @pytest.mark.parametrize("spec", [
        GenSpec((3, 5, 40), side=8, seed=21),
        GenSpec((25, 30, 35), side=33, seed=22, noise_level=0.01),
        GenSpec((0, 9, 8), side=70, seed=23),
    ], ids=["side8", "side33", "side70"])
    def test_matches_per_image_reference(self, spec):
        assert generate(spec).images.tobytes() == render_by_image(spec).tobytes()

    @pytest.mark.parametrize("images_per_chunk", [1, 3, 64])
    def test_bytes_do_not_depend_on_chunk_size(self, monkeypatch, images_per_chunk):
        spec = GenSpec((30, 40, 50), side=16, seed=9)
        whole = generate(spec)
        monkeypatch.setattr(datagen, "_CHUNK_PIXELS", images_per_chunk * 16 * 16)
        assert generate(spec).images.tobytes() == whole.images.tobytes()

    def test_peak_memory_near_output_size(self):
        tracemalloc.start()
        try:
            data = generate(GenSpec((141, 761, 1146), side=32, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.images.nbytes == 8 * 2**20
        assert peak < 1.6 * data.images.nbytes

    def test_single_class_counts(self):
        data = generate(GenSpec(counts=(0, 0, 5), side=12, seed=1))
        assert len(data) == 5
        assert np.all(data.labels == 2)

    def test_same_seed_identical_bytes(self):
        a = generate(GenSpec(counts=(3, 4, 5), side=16, seed=42))
        b = generate(GenSpec(counts=(3, 4, 5), side=16, seed=42))
        assert a.images.tobytes() == b.images.tobytes()

    def test_pixels_in_unit_interval(self):
        data = generate(GenSpec(counts=(20, 20, 20), side=16, seed=3, noise_level=0.3))
        assert data.images.min() >= 0.0
        assert data.images.max() <= 1.0

    def test_malignant_max_pixel_separates_from_benign(self):
        data = generate(GenSpec(counts=(0, 500, 500), seed=123))
        peaks = data.images.reshape(len(data), -1).max(axis=1)
        gap = peaks[data.labels == 2].mean() - peaks[data.labels == 1].mean()
        assert gap > 0.2

    def test_small_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            generate(GenSpec(counts=(1, 1, 1), side=7))

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            generate(GenSpec(counts=(0, 0, 0)))

    @pytest.mark.parametrize("field,value,message", [
        ("noise_level", float("nan"), "noise_level must be finite"),
        ("noise_level", float("inf"), "noise_level must be finite"),
        ("noise_level", -0.1, "noise_level must be finite and >= 0, got -0.1"),
        ("spike_intensity", (0.9, float("inf")), "spike_intensity must be finite"),
        ("spike_intensity", (1.0, 0.5), r"spike_intensity must be .*lo <= hi, got \(1.0, 0.5\)"),
    ])
    def test_bad_spec_is_an_error_naming_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            GenSpec(counts=(1, 1, 1), **{field: value})


class TestClassDistribution:
    def test_full_scale_imbalance_shares(self):
        labels = np.repeat([0, 1, 2], [2026, 10900, 13700]).astype(np.uint8)
        images = np.zeros((len(labels), 8, 8, 1), dtype=np.float32)
        counts, shares = class_distribution(LabeledImageSet(images, labels))
        assert counts.tolist() == [2026, 10900, 13700]
        assert shares[0] == pytest.approx(0.076, abs=5e-4)

    def test_equal_counts_equal_shares(self):
        data = generate(GenSpec(counts=(5, 5, 5), side=8, seed=0))
        _, shares = class_distribution(data)
        np.testing.assert_allclose(shares, 1 / 3)

    def test_single_class_full_share(self):
        data = generate(GenSpec(counts=(0, 7, 0), side=8, seed=0))
        _, shares = class_distribution(data)
        assert shares.tolist() == [0.0, 1.0, 0.0]


class TestTransforms:
    """The reference transforms that ``augment_by_image`` composes; the
    byte comparison in ``TestAugmentToShare`` carries their properties over
    to ``augment_to_share``."""

    def test_flip_and_rotation_preserve_pixel_multiset(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (9, 9, 1)).astype(np.float32)
        reference = np.sort(img.ravel())
        for transformed in (flip_h(img), flip_v(img), rot90k(img, 1), rot90k(img, 2), rot90k(img, 3)):
            np.testing.assert_array_equal(np.sort(transformed.ravel()), reference)

    def test_shift_clamps_edges(self):
        img = np.arange(9.0, dtype=np.float32).reshape(3, 3, 1)
        shifted = shift_clamped(img, 1, 0)  # down by one, top row repeats
        np.testing.assert_array_equal(shifted[0], img[0])
        np.testing.assert_array_equal(shifted[1], img[0])
        np.testing.assert_array_equal(shifted[2], img[1])


# sha256 of images then labels of augment_to_share(generate(spec), class,
# share, seed), pinned from the one-copy-at-a-time implementation
AUGMENT_GOLDEN = {
    "side32-normal-0.331": (
        GenSpec((152, 820, 1028), side=32, seed=0), 0, 0.331, 7,
        "2234bd515a085e6d747ec96a63b77fc5a774b3332a7febeec29f8c5d74134a21"),
    "side24-malignant-0.55": (
        GenSpec((40, 110, 140), side=24, seed=3), 2, 0.55, 11,
        "f47335f469b0176dc2f40b3abf84abd853cab92bdc10592e4d3965831f356d3b"),
    "side8-many-copies": (
        GenSpec((4, 60, 60), side=8, seed=5), 0, 0.6, 13,
        "f5765a1ecdb8f3aa398b72c6e7c78726d4aa6a5a25d644b7e86690c54c8a6ac0"),
}


class TestAugmentToShare:
    @pytest.mark.parametrize("spec,target,share,seed,digest", AUGMENT_GOLDEN.values(),
                             ids=AUGMENT_GOLDEN)
    def test_golden_digest(self, spec, target, share, seed, digest):
        assert data_digest(augment_to_share(generate(spec), target, share, seed=seed)) == digest

    def test_matches_per_image_reference(self):
        rng = np.random.default_rng(31)  # 3 datasets x 20 cases
        for side, counts in ((8, (9, 14, 20)), (11, (3, 25, 12)), (16, (20, 6, 30))):
            data = generate(GenSpec(counts, side=side, seed=side))
            for _ in range(20):
                target = int(rng.integers(0, 3))
                current = counts[target] / sum(counts)
                share = float(rng.uniform(current + 1e-6, min(0.95, current + 0.6)))
                seed = int(rng.integers(0, 2**31))
                out = augment_to_share(data, target, share, seed=seed)
                needed = len(out) - len(data)
                expected = augment_by_image(data.images, data.labels, target, needed, seed)
                assert out.images[len(data):].tobytes() == expected.tobytes()

    def test_reaches_target_band(self):
        data = generate(GenSpec(counts=(152, 820, 1028), side=8, seed=7))
        out = augment_to_share(data, target_class=0, target_share=0.331, seed=7)
        _, shares = class_distribution(out)
        assert 0.331 <= shares[0] < 0.331 + 1.0 / len(out)

    def test_minimal_single_append(self):
        data = generate(GenSpec(counts=(10, 10, 20), side=8, seed=1))
        current = 10 / 40
        target = current + 1e-9
        out = augment_to_share(data, 0, target, seed=2)
        assert len(out) == 41

    def test_originals_untouched_append_only(self):
        data = generate(GenSpec(counts=(8, 8, 8), side=8, seed=3))
        out = augment_to_share(data, 0, 0.5, seed=3)
        assert out.images[: len(data)].tobytes() == data.images.tobytes()
        np.testing.assert_array_equal(out.labels[: len(data)], data.labels)
        assert np.all(out.labels[len(data):] == 0)
        assert out.provenance == "augmented"

    def test_band_holds_for_many_targets_and_seeds(self):
        data = generate(GenSpec(counts=(12, 30, 40), side=8, seed=4))
        rng = np.random.default_rng(0)
        for _ in range(50):
            target = float(rng.uniform(0.16, 0.85))
            out = augment_to_share(data, 0, target, seed=int(rng.integers(0, 10000)))
            _, shares = class_distribution(out)
            assert target <= shares[0] < target + 1.0 / len(out)
            assert out.images.min() >= 0.0 and out.images.max() <= 1.0

    def test_unreachable_share_rejected(self):
        data = generate(GenSpec(counts=(2, 500, 500), side=8, seed=5))
        with pytest.raises(ValueError, match="50x"):
            augment_to_share(data, 0, 0.5, seed=1)

    def test_share_must_exceed_current(self):
        data = generate(GenSpec(counts=(10, 10, 10), side=8, seed=6))
        with pytest.raises(ValueError, match="share"):
            augment_to_share(data, 0, 0.2, seed=1)

    def test_non_square_images_rejected(self):
        labels = np.repeat([0, 1, 2], [4, 10, 10]).astype(np.uint8)
        data = LabeledImageSet(np.zeros((len(labels), 8, 10, 1)), labels)
        with pytest.raises(ValueError, match="H=8.*W=10"):
            augment_to_share(data, 0, 0.5, seed=0)


class TestHoldoutExtract:
    def test_requested_size_and_stratification(self):
        data = generate(GenSpec(counts=(60, 150, 190), side=8, seed=8))
        blind, rest = holdout_extract(data, 150, seed=9)
        assert len(blind) == 150
        assert len(rest) == len(data) - 150
        counts, _ = class_distribution(blind)
        exact = np.array([60, 150, 190]) * 150 / 400
        assert np.all(np.abs(counts - exact) <= 1.0)

    def test_remainder_of_one(self):
        data = generate(GenSpec(counts=(3, 3, 4), side=8, seed=10))
        blind, rest = holdout_extract(data, len(data) - 1, seed=0)
        assert len(rest) == 1

    def test_union_is_original_multiset(self):
        data = generate(GenSpec(counts=(7, 8, 9), side=8, seed=11))
        blind, rest = holdout_extract(data, 10, seed=1)
        merged = np.concatenate([blind.images, rest.images]).reshape(len(data), -1)
        original = data.images.reshape(len(data), -1)
        assert sorted(map(tuple, merged)) == sorted(map(tuple, original))

    def test_bad_sizes_rejected(self):
        data = generate(GenSpec(counts=(3, 3, 3), side=8, seed=12))
        with pytest.raises(ValueError):
            holdout_extract(data, 0, seed=0)
        with pytest.raises(ValueError):
            holdout_extract(data, 9, seed=0)


class TestMids1Format:
    def test_generate_write_read_bit_exact(self, tmp_path):
        data = generate(GenSpec(counts=(4, 5, 6), side=10, seed=13))
        path = tmp_path / "set.mids"
        write_dataset(path, data)
        loaded = read_dataset(path)
        assert loaded.images.tobytes() == data.images.tobytes()
        np.testing.assert_array_equal(loaded.labels, data.labels)
        assert loaded.class_names == data.class_names

    def test_write_read_write_byte_identical(self, tmp_path):
        data = generate(GenSpec(counts=(3, 3, 3), side=9, seed=14))
        first, second = tmp_path / "a.mids", tmp_path / "b.mids"
        write_dataset(first, data)
        write_dataset(second, read_dataset(first))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mids"
        path.write_bytes(b"WRONG" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_dataset(path)

    def test_truncated_payload_rejected(self, tmp_path):
        data = generate(GenSpec(counts=(2, 2, 2), side=8, seed=15))
        path = tmp_path / "trunc.mids"
        write_dataset(path, data)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="payload"):
            read_dataset(path)

    def test_every_truncation_is_a_value_error(self, tmp_path):
        data = generate(GenSpec(counts=(1, 1, 1), side=8, seed=16))
        whole = tmp_path / "whole.mids"
        write_dataset(whole, data)
        raw = whole.read_bytes()
        path = tmp_path / "prefix.mids"
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(ValueError, match="prefix.mids"):
                read_dataset(path)

    def test_non_finite_pixels_rejected(self, tmp_path):
        data = generate(GenSpec(counts=(2, 2, 2), side=8, seed=17))
        path = tmp_path / "nan.mids"
        for value in (np.nan, np.inf):
            images = data.images.copy()
            images[3, 4, 5, 0] = value
            write_dataset(path, LabeledImageSet(images, data.labels))
            with pytest.raises(ValueError, match="nan.mids.*non-finite"):
                read_dataset(path)

    def test_label_out_of_range_names_the_file(self, tmp_path):
        data = generate(GenSpec(counts=(2, 2, 2), side=8, seed=17))
        path = tmp_path / "labels.mids"
        write_dataset(path, data)
        raw = bytearray(path.read_bytes())
        raw[len(raw) - data.images.size * 4 - 1] = 3  # the last label; the table has 3 names
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="labels.mids: label out of range"):
            read_dataset(path)

    def test_out_of_range_pixels_rejected(self, tmp_path):
        data = generate(GenSpec(counts=(2, 2, 2), side=8, seed=17))
        path = tmp_path / "range.mids"
        for values in ([1.0 + 1e-6], [-1e-6], [2.0, -3.0, 1.5]):
            images = data.images.copy()
            images.reshape(-1)[:len(values)] = values
            write_dataset(path, LabeledImageSet(images, data.labels))
            with pytest.raises(ValueError, match=f"range.mids: {len(values)} pixel.*outside"):
                read_dataset(path)
        images = data.images.copy()
        images[0, 0, 0, 0], images[0, 0, 1, 0] = 0.0, 1.0
        write_dataset(path, LabeledImageSet(images, data.labels))
        assert read_dataset(path).images.tobytes() == images.tobytes()

    def test_mixed_bad_pixels_report_the_non_finite_count_first(self, tmp_path):
        data = generate(GenSpec(counts=(2, 2, 2), side=8, seed=17))
        images = data.images.copy()
        images.reshape(-1)[[3, 40, 90]] = [np.nan, 2.0, -np.inf]
        path = tmp_path / "mixed.mids"
        write_dataset(path, LabeledImageSet(images, data.labels))
        with pytest.raises(ValueError, match="mixed.mids: 2 non-finite"):
            read_dataset(path)

    @pytest.mark.parametrize("h,w", [(0, 0), (0, 5), (5, 0)])
    def test_zero_height_or_width_names_the_file(self, tmp_path, h, w):
        names = b"".join(struct.pack("<H", len(name)) + name.encode() for name in CLASS_NAMES)
        path = tmp_path / "z.mids"
        path.write_bytes(MAGIC + struct.pack("<4I", 30, h, w, len(CLASS_NAMES)) + names + bytes(30))
        with pytest.raises(ValueError, match=r"z.mids: images must have H and W >= 1"):
            read_dataset(path)

    def test_empty_set_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "empty.mids"
        empty = LabeledImageSet(np.zeros((0, 8, 8, 1)), np.zeros(0))
        write_dataset(path, empty)
        assert len(read_dataset(path)) == 0
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="empty.mids: pixel payload is 1 bytes, expected 0"):
            read_dataset(path)

    def test_read_peak_memory_near_payload(self, tmp_path):
        data = generate(GenSpec((141, 761, 1146), side=32, seed=0))
        path = tmp_path / "big.mids"
        write_dataset(path, data)
        del data
        tracemalloc.start()
        try:
            loaded = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.images.nbytes == 8 * 2**20
        assert peak < 1.3 * loaded.images.nbytes
