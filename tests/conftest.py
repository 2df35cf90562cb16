import pytest

from trimfem import solve


@pytest.fixture
def splu_dtypes(monkeypatch):
    """The dtype of every matrix passed to SuperLU, in call order.

    Empty when every factor was multifrontal; an SPD system that falls
    back to SuperLU adds one float64 entry.
    """
    dtypes = []
    splu = solve.spla.splu

    def recording_splu(A, *args, **kwargs):
        dtypes.append(A.dtype)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(solve.spla, "splu", recording_splu)
    return dtypes
