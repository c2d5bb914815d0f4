"""numpy's private gufuncs that sdpi calls directly.

This module imports numpy alone, so a numpy without them fails here with a
named cause, not only with the collection errors of every module that
imports sdpibounds.
"""

import importlib

import numpy


def test_umath_linalg_gufuncs():
    try:
        linalg = importlib.import_module("numpy.linalg._umath_linalg")
    except ImportError:
        linalg = None
    for name, caller in (("cholesky_lo", "sdpi._negative_definite"), ("solve", "sdpi._solved"),
                         ("eigh_lo", "sdpi._saddle_free")):
        assert hasattr(linalg, name), (
            f"numpy {numpy.__version__} has no numpy.linalg._umath_linalg.{name}, "
            f"which {caller} calls"
        )
