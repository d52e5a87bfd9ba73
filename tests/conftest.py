import pytest

from frameattn import tensor as T


@pytest.fixture
def scale_tanh_backward(monkeypatch):
    """Corrupt one backward rule on purpose: after ``scale_tanh_backward(s)``,
    every ``frameattn.tensor.tanh`` call records a rule whose contribution to
    its input's gradient is multiplied by ``s``.  Undone when the test ends."""

    def install(scale: float) -> None:
        clean_tanh = T.tanh

        def tanh(a):
            out = clean_tanh(a)
            clean_rule = out._rule

            def rule():
                before = a.grad.copy()
                clean_rule()
                a.grad += (scale - 1.0) * (a.grad - before)

            out._rule = rule
            return out

        monkeypatch.setattr(T, "tanh", tanh)

    return install
