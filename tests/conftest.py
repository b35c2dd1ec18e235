import os
from pathlib import Path

import numpy as np
import pytest

from synth import make_blobs, write_oulad_raw


class StubModel:
    """Duck-typed stand-in for a forest: built from a vectorized p(fail) function."""

    def __init__(self, p_fail_fn, p):
        self._fn = p_fail_fn
        self.p = p

    def predict_proba_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.asarray([float(self._fn(row)) for row in X])

    def predict_proba(self, x):
        return float(self.predict_proba_batch(np.asarray(x)[None, :])[0])


@pytest.fixture
def stub_model():
    return StubModel


@pytest.fixture
def blobs():
    return make_blobs


@pytest.fixture(scope="session")
def mini_oulad(tmp_path_factory):
    """A small synthetic raw-log directory shared across tests."""
    dest = tmp_path_factory.mktemp("oulad_raw")
    return write_oulad_raw(dest, n_students=80, seed=3)


@pytest.fixture(scope="session")
def oulad_dir():
    """The real raw dataset directory; tests depending on it skip when absent."""
    raw = os.environ.get("OULAD_DIR")
    if not raw:
        pytest.skip("OULAD_DIR not set; real-data checks need the raw CSV files")
    raw = Path(raw)
    missing = [f for f in ("studentInfo.csv", "studentVle.csv", "vle.csv")
               if not (raw / f).exists()]
    if missing:
        pytest.skip(f"OULAD_DIR is missing {', '.join(missing)}")
    return raw
