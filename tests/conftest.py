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
            if clean_rule is not None:
                # the rule is linear in the output gradient it receives
                out._rule = lambda g: clean_rule(scale * g)
            return out

        monkeypatch.setattr(T, "tanh", tanh)

    return install
