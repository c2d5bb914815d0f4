import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sdpibounds import JointDistribution

ANSWERS_TOOL = Path(__file__).resolve().parents[1] / "tools" / "sstar_answers.py"


def load_sstar_answers():
    """A fresh module of tools/sstar_answers.py, which is no package's."""
    spec = importlib.util.spec_from_file_location("sstar_answers", ANSWERS_TOOL)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up in sys.modules while it builds a class.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def random_joint(rng, nx, ny, floor=1e-3):
    """Random full-support joint; the floor keeps conditionals well scaled."""
    m = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    m = np.maximum(m, floor)
    return JointDistribution(m / m.sum())


@pytest.fixture
def quaternary():
    return JointDistribution(np.where(np.eye(4) > 0, 0.1, 0.05))


@pytest.fixture
def dsbs():
    # Doubly symmetric binary source with crossover 0.1.
    return JointDistribution([[0.45, 0.05], [0.05, 0.45]])


@pytest.fixture
def independent_binary():
    return JointDistribution(np.full((2, 2), 0.25))


@pytest.fixture
def diagonal_binary():
    return JointDistribution([[0.5, 0.0], [0.0, 0.5]])
