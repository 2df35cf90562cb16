import pytest

from trimfem import solve


@pytest.fixture
def _splu_calls(monkeypatch):
    """The dtype and the keyword arguments of every SuperLU call."""
    dtypes, options = [], []
    splu = solve.spla.splu

    def recording_splu(A, *args, **kwargs):
        dtypes.append(A.dtype)
        options.append(kwargs)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(solve.spla, "splu", recording_splu)
    return dtypes, options


@pytest.fixture
def splu_dtypes(_splu_calls):
    """The dtype of every matrix passed to SuperLU, in call order.

    Empty when every factor was multifrontal; an SPD system that falls
    back to SuperLU adds one float64 entry.
    """
    return _splu_calls[0]


@pytest.fixture
def splu_options(_splu_calls):
    """The keyword arguments of every SuperLU call, in call order."""
    return _splu_calls[1]

