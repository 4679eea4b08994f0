import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_float32_checkpoint
from rcasr.numerics import (ParameterStore, adam_step, glorot_init, load_checkpoint, make_rng,
                            save_checkpoint)


class TestGlorot:
    def test_scalar_bound(self):
        v = glorot_init((1, 1), make_rng(4))
        assert -np.sqrt(3) <= v[0, 0] <= np.sqrt(3)

    def test_determinism(self):
        a = glorot_init((5, 7), make_rng(9))
        b = glorot_init((5, 7), make_rng(9))
        assert np.array_equal(a, b)

    def test_empirical_mean(self):
        draws = glorot_init((500, 200), make_rng(10))
        assert abs(draws.mean()) < 0.02

    def test_bounds_general(self):
        w = glorot_init((6, 10), make_rng(11))
        limit = np.sqrt(6.0 / 16.0)
        assert np.all(np.abs(w) <= limit)

    def test_conv_fans(self):
        k = glorot_init((4, 2, 3, 3), make_rng(12))
        limit = np.sqrt(6.0 / (2 * 9 + 4 * 9))
        assert np.all(np.abs(k) <= limit)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            glorot_init((0, 3), make_rng(1))


class TestAdam:
    def test_zero_gradient_is_noop(self):
        store = ParameterStore()
        store.add("w", np.array([1.0, -2.0]))
        adam_step(store, lr=0.1)
        assert np.array_equal(store["w"].value, [1.0, -2.0])
        assert store.step_count == 1

    def test_first_step_hand_derived(self):
        # m=0.1, v=0.001, bias-corrected m_hat=v_hat=1 => step lr/(1+eps)
        store = ParameterStore()
        store.add("w", np.array([1.0]))
        store["w"].grad[...] = 1.0
        adam_step(store, lr=0.1)
        expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert store["w"].value[0] == pytest.approx(expected, abs=1e-15)
        assert store["w"].value[0] == pytest.approx(0.9, abs=1e-7)
        assert store["w"].grad[0] == 0.0

    def test_deterministic_streams(self):
        def run():
            store = ParameterStore()
            rng = make_rng(77)
            store.add("w", glorot_init((3, 3), rng))
            for _ in range(5):
                store["w"].grad[...] = rng.normal(size=(3, 3))
                adam_step(store, lr=0.01)
            return store

        s1, s2 = run(), run()
        assert np.array_equal(s1["w"].value, s2["w"].value)
        assert np.array_equal(s1["w"].adam_m, s2["w"].adam_m)
        assert s1.step_count == s2.step_count

    def test_nonfinite_gradient_names_parameter(self):
        store = ParameterStore()
        store.add("w_bad", np.ones(2))
        store["w_bad"].grad[...] = [1.0, np.inf]
        with pytest.raises(FloatingPointError, match="w_bad"):
            adam_step(store, lr=0.1)

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", np.ones(1))
        with pytest.raises(ValueError):
            store.add("w", np.ones(1))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        store = ParameterStore()
        rng = make_rng(13)
        store.add("layer/W", rng.normal(size=(3, 4)))
        store.add("layer/b", rng.normal(size=4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)
        loaded = load_checkpoint(path)
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded[name].value.dtype == store[name].value.dtype
            assert np.array_equal(loaded[name].value, store[name].value)
        # moments come back zeroed
        assert np.all(loaded["layer/W"].adam_m == 0)

    def test_save_load_save_bytes_identical(self, tmp_path):
        store = ParameterStore()
        store.add("w", make_rng(14).normal(size=(5, 2)))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(store, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float32_entry_is_a_data_error_naming_the_file(self, tmp_path):
        path = tmp_path / "f32.ckpt"
        write_float32_checkpoint(small_store(), path)
        with pytest.raises(ValueError, match="parameter 'a/W' has dtype code 1") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_save_refuses_a_float32_value_naming_the_parameter(self, tmp_path):
        store = small_store()
        store.add("a/half", np.ones(3, dtype=np.float32))
        with pytest.raises(ValueError, match="parameter 'a/half' is float32"):
            save_checkpoint(store, tmp_path / "x.ckpt")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTCKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_every_truncation_is_a_data_error_naming_the_file(self, tmp_path):
        good = tmp_path / "good.ckpt"
        save_checkpoint(small_store(), good)
        blob = good.read_bytes()
        path = tmp_path / "cut.ckpt"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="truncated checkpoint") as info:
                load_checkpoint(path)
            assert str(path) in str(info.value), cut

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_cut_or_flipped_bytes_raise_only_value_or_os_errors(self, tmp_path, data):
        good = tmp_path / "good.ckpt"
        save_checkpoint(small_store(), good)
        blob = bytearray(good.read_bytes())
        if data.draw(st.booleans(), label="flip"):
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
        else:
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except (ValueError, OSError):
            pass


def small_store():
    store = ParameterStore()
    rng = make_rng(15)
    store.add("a/W", rng.normal(size=(3, 2)))
    store.add("a/b", rng.normal(size=2))
    store.add("s", np.float64(1.5))
    return store


def test_rng_streams_independent_and_stable():
    a = make_rng(5).normal(size=4)
    b = make_rng(5).normal(size=4)
    c = make_rng(5, 1).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
