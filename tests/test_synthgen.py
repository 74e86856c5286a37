import numpy as np
import pytest

from fuzzml.synthgen import (
    SYNTH_KINDS,
    NoiseSpec,
    SynthSpec,
    gen_synthetic,
    inject_label_noise,
)


def _check_logic(kind, labels):
    y = labels
    if kind == "equality":
        np.testing.assert_array_equal(y[0], y[1])
        np.testing.assert_array_equal(y[2], y[3])
    elif kind == "union":
        np.testing.assert_array_equal(y[0], np.max(y[1:4], axis=0))
    exclusive = np.all(y[0:4] == 0.0, axis=0).astype(float)
    np.testing.assert_array_equal(y[4], exclusive)


class TestGeneration:
    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    @pytest.mark.parametrize("seed", range(10))
    def test_label_logic_holds_everywhere(self, kind, seed):
        data = gen_synthetic(SynthSpec(kind=kind, n_samples=300, n_features=6, seed=seed))
        assert data.n_labels == 5
        _check_logic(kind, data.labels)

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    def test_features_in_unit_interval(self, kind):
        data = gen_synthetic(SynthSpec(kind=kind, n_samples=500, n_features=20, seed=3))
        assert data.features.min() >= 0.0
        assert data.features.max() <= 1.0

    def test_determinism(self):
        spec = SynthSpec(kind="union", n_samples=200, n_features=8, seed=11)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            SynthSpec(kind="nope")
        with pytest.raises(ValueError):
            SynthSpec(kind="union", base_label_prob=0.0)
        with pytest.raises(ValueError):
            SynthSpec(kind="union", n_samples=0)

    @pytest.mark.parametrize("field", ["n_samples", "n_features"])
    @pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0)])
    def test_rejects_non_integer_sizes(self, field, value):
        with pytest.raises(ValueError, match=r"^%s must be an integer, got " % field):
            SynthSpec(kind="union", **{field: value})
        assert getattr(SynthSpec(kind="union", **{field: np.int64(4)}), field) == 4

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0])
    def test_rejects_a_bad_seed(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got %s$" % seed):
            SynthSpec(kind="union", seed=seed)


class TestNoiseInjection:
    def _data(self, n=10, seed=0):
        return gen_synthetic(SynthSpec(kind="independence", n_samples=n,
                                       n_features=4, seed=seed))

    def test_zero_ratio_is_identity(self):
        data = self._data()
        noisy = inject_label_noise(data, NoiseSpec(ratio=0.0, seed=5))
        np.testing.assert_array_equal(noisy.labels, data.labels)

    def test_full_ratio_flips_everything(self):
        data = self._data()
        noisy = inject_label_noise(data, NoiseSpec(ratio=1.0, seed=5))
        np.testing.assert_array_equal(noisy.labels, 1.0 - data.labels)

    def test_half_ratio_flips_exactly_half(self):
        data = self._data(n=10)
        noisy = inject_label_noise(data, NoiseSpec(ratio=0.5, seed=7))
        differs = (noisy.labels != data.labels).any(axis=0)
        assert differs.sum() == 5
        # every selected column differs in all label bits
        full_flip = (noisy.labels != data.labels).all(axis=0)
        np.testing.assert_array_equal(differs, full_flip)

    def test_involution(self):
        data = self._data(n=40)
        spec = NoiseSpec(ratio=0.3, seed=13)
        twice = inject_label_noise(inject_label_noise(data, spec), spec)
        np.testing.assert_array_equal(twice.labels, data.labels)

    def test_features_untouched_and_input_unmodified(self):
        data = self._data(n=20)
        before = data.labels.copy()
        noisy = inject_label_noise(data, NoiseSpec(ratio=0.5, seed=1))
        np.testing.assert_array_equal(noisy.features, data.features)
        np.testing.assert_array_equal(data.labels, before)

    def test_determinism(self):
        data = self._data(n=30)
        spec = NoiseSpec(ratio=0.4, seed=21)
        a = inject_label_noise(data, spec)
        b = inject_label_noise(data, spec)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            NoiseSpec(ratio=1.5)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0])
    def test_rejects_a_bad_seed(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got %s$" % seed):
            NoiseSpec(ratio=0.5, seed=seed)
        assert NoiseSpec(ratio=0.5, seed=np.uint64(2 ** 63)).seed == 2 ** 63
