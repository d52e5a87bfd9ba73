import pytest

from frameattn import tensor as T


@pytest.fixture
def scale_backward(monkeypatch):
    """Corrupt one backward rule on purpose: after ``scale_backward(name, s)``,
    every ``frameattn.tensor.<name>`` call records a rule whose contributions
    to its inputs' gradients are multiplied by ``s``.  Undone when the test
    ends."""

    def install(name: str, scale: float) -> None:
        clean_op = getattr(T, name)

        def op(*args, **kw):
            result = clean_op(*args, **kw)
            out = result[0] if isinstance(result, tuple) else result
            clean_rule = out._rule
            if clean_rule is not None:
                # every rule is linear in the output gradient it receives
                out._rule = lambda g: clean_rule(scale * g)
            return result

        monkeypatch.setattr(T, name, op)

    return install
