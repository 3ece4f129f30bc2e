"""Synthetic data generation, targeted augmentation, and MIDS1 round-trips."""

import numpy as np
import pytest

from pfnn.datagen import (
    GenSpec,
    LabeledImageSet,
    augment_to_share,
    class_distribution,
    flip_h,
    flip_v,
    generate,
    holdout_extract,
    read_dataset,
    rot90k,
    shift_clamped,
    write_dataset,
)


class TestGenerate:
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


class TestAugmentToShare:
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
