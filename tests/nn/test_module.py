"""Tests for the Module base class and Parameter."""

import numpy as np
import pytest

from repro.meta import MetaArray
from repro.nn import MLP, Linear, Module, Parameter


class TestParameter:
    def test_grad_accumulates(self):
        p = Parameter(np.zeros((2, 2)))
        p.add_grad(np.ones((2, 2)))
        p.add_grad(np.ones((2, 2)))
        np.testing.assert_array_equal(p.grad, 2 * np.ones((2, 2)))

    def test_zero_grad(self):
        p = Parameter(np.zeros(3))
        p.add_grad(np.ones(3))
        p.zero_grad()
        assert p.grad is None

    def test_shape_mismatch_rejected(self):
        p = Parameter(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            p.add_grad(np.ones((3, 2)))

    def test_meta_parameter(self):
        p = Parameter(MetaArray((4, 4)))
        assert p.is_meta
        p.add_grad(MetaArray((4, 4)))
        assert p.grad.shape == (4, 4)

    def test_grad_copy_does_not_alias(self):
        p = Parameter(np.zeros(2))
        g = np.ones(2)
        p.add_grad(g)
        g[0] = 99.0
        assert p.grad[0] == 1.0


class TestModuleRegistration:
    def test_named_parameters_depth_first(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(2, 3, rng=0)
                self.fc2 = Linear(3, 2, rng=1)

        names = [n for n, _ in Net().named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_num_parameters(self):
        lin = Linear(4, 5, rng=0)
        assert lin.num_parameters() == 4 * 5 + 5
        assert lin.parameter_bytes() == (4 * 5 + 5) * 4

    def test_zero_grad_recursive(self):
        mlp = MLP(2, 2, rng=0)
        mlp(np.ones((1, 2)))
        mlp.backward(np.ones((1, 2)))
        assert all(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_named_modules(self):
        names = [n for n, _ in MLP(2, 2, rng=0).named_modules()]
        assert "" in names and "fc1" in names

    def test_register_module_type_checked(self):
        with pytest.raises(TypeError):
            Module().register_module("x", object())


class TestCacheDiscipline:
    def test_backward_without_forward_raises(self):
        lin = Linear(2, 2, rng=0)
        with pytest.raises(RuntimeError, match="without a cached forward"):
            lin.backward(np.ones((1, 2)))

    def test_backward_twice_raises(self):
        lin = Linear(2, 2, rng=0)
        lin(np.ones((1, 2)))
        lin.backward(np.ones((1, 2)))
        with pytest.raises(RuntimeError):
            lin.backward(np.ones((1, 2)))

    def test_clear_cache_recursive(self):
        mlp = MLP(2, 2, rng=0)
        mlp(np.ones((1, 2)))
        mlp.clear_cache()
        with pytest.raises(RuntimeError):
            mlp.fc1.backward(np.ones((1, 2)))


class TestStateDict:
    def test_roundtrip(self):
        a = Linear(3, 4, rng=0)
        b = Linear(3, 4, rng=99)
        b.load_state_dict(a.state_dict())
        x = np.random.default_rng(0).normal(size=(2, 3))
        np.testing.assert_array_equal(a(x), b(x))

    def test_state_dict_is_a_copy(self):
        lin = Linear(2, 2, rng=0)
        state = lin.state_dict()
        state["weight"][0, 0] = 123.0
        assert lin.weight.data[0, 0] != 123.0

    def test_missing_key_rejected(self):
        lin = Linear(2, 2, rng=0)
        state = lin.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            lin.load_state_dict(state)

    def test_unexpected_key_rejected(self):
        lin = Linear(2, 2, rng=0)
        state = lin.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError):
            lin.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        lin = Linear(2, 2, rng=0)
        state = lin.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            lin.load_state_dict(state)
