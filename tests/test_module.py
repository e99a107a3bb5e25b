"""Tests for Parameter / Module / Sequential plumbing."""

import numpy as np
import pytest

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import Linear, ReLU


class TestParameter:
    def test_basic_properties(self):
        p = Parameter(np.ones((3, 4)), name="w")
        assert p.shape == (3, 4)
        assert p.size == 12
        assert p.density() == 1.0
        assert p.sparsity() == 0.0

    def test_accumulate_grad(self):
        p = Parameter(np.zeros((2, 2)))
        p.accumulate_grad(np.ones((2, 2)))
        p.accumulate_grad(np.ones((2, 2)))
        np.testing.assert_allclose(p.grad, 2 * np.ones((2, 2)))
        p.zero_grad()
        assert p.grad is None

    def test_accumulate_grad_shape_mismatch(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.accumulate_grad(np.ones((3, 3)))

    def test_mask_application(self):
        p = Parameter(np.full((2, 2), 3.0))
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        p.set_mask(mask)
        assert p.mask.dtype == bool  # one byte per weight, whatever dtype came in
        np.testing.assert_allclose(p.data, [[3, 0], [0, 3]])
        assert p.density() == 0.5
        assert p.sparsity() == 0.5

    def test_mask_shape_mismatch(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.set_mask(np.ones((3, 3)))

    def test_clear_mask(self):
        p = Parameter(np.ones((2, 2)))
        p.set_mask(np.zeros((2, 2)))
        p.set_mask(None)
        assert p.mask is None

    def test_effective_keeps_dense_data(self):
        p = Parameter(np.full((4,), 2.0).reshape(2, 2))
        p.mask = np.array([[1.0, 0.0], [1.0, 1.0]])
        eff = p.effective()
        np.testing.assert_allclose(eff, [[2, 0], [2, 2]])
        # data itself untouched (the straight-through-estimator requirement)
        np.testing.assert_allclose(p.data, 2.0)


class TestModule:
    def _toy_module(self):
        class Toy(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(4, 3, seed=0)
                self.act = ReLU()
                self.fc2 = Linear(3, 2, seed=0)

            def forward(self, x):
                return self.fc2(self.act(self.fc1(x)))

            def backward(self, grad):
                return self.fc1.backward(self.act.backward(self.fc2.backward(grad)))

        return Toy()

    def test_named_parameters(self):
        toy = self._toy_module()
        names = [name for name, _ in toy.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names
        assert len(names) == 4

    def test_named_modules(self):
        toy = self._toy_module()
        names = [name for name, _ in toy.named_modules()]
        assert "" in names and "fc1" in names and "act" in names

    def test_train_eval_recursive(self):
        toy = self._toy_module()
        toy.eval()
        assert not toy.training and not toy.fc1.training
        toy.train()
        assert toy.training and toy.fc2.training

    def test_zero_grad(self, rng):
        toy = self._toy_module()
        x = rng.normal(size=(2, 4))
        out = toy(x)
        toy.backward(np.ones_like(out))
        assert toy.fc1.weight.grad is not None
        toy.zero_grad()
        assert toy.fc1.weight.grad is None

    def test_state_dict_roundtrip(self, rng):
        toy = self._toy_module()
        toy.fc1.weight.set_mask(np.ones_like(toy.fc1.weight.data))
        state = toy.state_dict()
        assert state["fc1.weight::mask"].dtype == bool

        other = self._toy_module()
        other.fc1.weight.data += 5.0
        other.load_state_dict(state)
        np.testing.assert_allclose(other.fc1.weight.data, toy.fc1.weight.data)
        assert other.fc1.weight.mask is not None

    def test_state_dict_shape_mismatch_raises(self):
        toy = self._toy_module()
        state = toy.state_dict()
        state["fc1.weight"] = np.zeros((7, 7))
        with pytest.raises(ValueError):
            toy.load_state_dict(state)

    def test_count_parameters(self):
        toy = self._toy_module()
        assert toy.count_parameters() == 4 * 3 + 3 + 3 * 2 + 2

    def test_apply_masks(self):
        toy = self._toy_module()
        mask = np.zeros_like(toy.fc1.weight.data)
        toy.fc1.weight.mask = mask
        toy.fc1.weight.data += 1.0
        toy.apply_masks()
        np.testing.assert_allclose(toy.fc1.weight.data, 0.0)


class TestSequential:
    def test_forward_backward_order(self, rng):
        seq = Sequential(Linear(4, 8, seed=0), ReLU(), Linear(8, 2, seed=0))
        x = rng.normal(size=(3, 4))
        out = seq(x)
        assert out.shape == (3, 2)
        grad_in = seq.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_len_getitem_iter(self):
        layers = [Linear(2, 2, seed=0), ReLU()]
        seq = Sequential(*layers)
        assert len(seq) == 2
        assert seq[1] is layers[1]
        assert list(iter(seq)) == layers

    def test_append(self):
        seq = Sequential(Linear(2, 2, seed=0))
        seq.append(ReLU())
        assert len(seq) == 2

    def test_parameters_collected(self):
        seq = Sequential(Linear(2, 3, seed=0), Linear(3, 4, seed=0))
        names = [name for name, _ in seq.named_parameters()]
        assert "0.weight" in names and "1.bias" in names
