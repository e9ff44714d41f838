"""Tests for Module/Parameter."""

import numpy as np

from repro.nn import Module, Parameter


class TestModule:
    def test_named_parameters_in_assignment_order(self):
        class M(Module):
            def __init__(self):
                self.b = Parameter(np.zeros(3))
                self.config = "not a parameter"
                self.a = Parameter(np.ones(2))

        m = M()
        assert [name for name, _ in m.named_parameters()] == ["b", "a"]
        assert m.parameters() == [m.b, m.a]
        assert all(p.requires_grad for p in m.parameters())
