"""Finite probability objects and the information measures built on them.

Conventions used throughout the package:

 - every logarithm is base 2, so entropies, divergences and rates are in bits;
 - pmf arrays are float64, validated on construction, then frozen read-only;
 - a pmf whose total mass is within 1e-9 of 1 is renormalized silently,
   anything further off is rejected as a real modeling error; one within
   rounding of 1 is kept bit for bit (a JSON round trip, a transpose);
 - joint distributions are (x, y) matrices in row-major order, x indexes rows;
 - both marginals of a joint-like matrix come from _marginal_sums, which
   sums each as the rows of a C-contiguous matrix (the matrix for P_X, its
   transpose for P_Y), so a transpose swaps the marginals bit for bit.

Joint distributions must have marginals of at least the least normal
double, np.finfo(float).tiny (about 2.2e-308).  Zero rows or columns would
make conditionals and divergence ratios undefined, and subnormal ones
overflow them, so they are rejected up front rather than patched
downstream.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ProbabilityError

LN2 = float(np.log(2.0))

# Mass within this of 1.0 renormalizes; beyond it the input is rejected.
SUM_TOLERANCE = 1e-9
# Entries slightly negative from upstream float arithmetic clip to zero.
NEGATIVE_TOLERANCE = 1e-12
# The least normal double: the least marginal mass a joint may have.
_LEAST_NORMAL = float(np.finfo(np.float64).tiny)
# The next double above -1 (see _kl_rows).
_ABOVE_MINUS_ONE = float(np.nextafter(-1.0, 0.0))


def _clean_pmf(values, ndim: int, what: str, axis: int | None = None) -> np.ndarray:
    """Validated read-only copy of values with unit mass along axis (None: in total).

    The total is summed in sorted order, so a transpose gets the same one.
    Dividing n entries by their total rounds the total (n - 1 additions)
    and each entry once, and a new sum rounds n - 1 times: a pmf divided
    once has a total within n eps of 1, and such a total is not divided.
    """
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise ProbabilityError(f"{what}: expected a {ndim}-d array, got shape {arr.shape}")
    if arr.size == 0:
        raise ProbabilityError(f"{what}: empty")
    if not np.all(np.isfinite(arr)):
        raise ProbabilityError(f"{what}: non-finite entries")
    low = float(arr.min())
    if low < -NEGATIVE_TOLERANCE:
        raise ProbabilityError(f"{what}: negative mass {low:.3e}")
    np.clip(arr, 0.0, None, out=arr)
    # Finite entries near the float maximum sum to inf: a bad total, not a warning.
    with np.errstate(over="ignore"):
        total = np.sort(arr, axis=axis).sum(axis=axis, keepdims=True)
    off = np.abs(total - 1.0)
    if np.any(off > SUM_TOLERANCE):
        raise ProbabilityError(f"{what}: total mass {float(total.flat[np.argmax(off)])!r} is not 1")
    if np.any(off > arr.size / total.size * np.finfo(np.float64).eps):
        arr /= total
    arr.setflags(write=False)
    return arr


def _require_integer(value, what: str) -> int:
    """value as an int, accepting numpy integers; TypeError for bool and non-integers."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def _is_real(value) -> bool:
    """True for real numbers, numpy scalars included; False for bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number_list(values, what: str) -> np.ndarray:
    """A flat list of numbers as a float array; TypeError for anything else."""
    if not isinstance(values, (list, tuple)) or not all(_is_real(v) for v in values):
        raise TypeError(f"{what} must be a flat list of numbers")
    return np.array(values, dtype=np.float64)


def _sized_matrix(payload: dict, rows: str, cols: str, values: str, what: str) -> np.ndarray:
    """payload[values] reshaped row-major to payload[rows] x payload[cols]."""
    n, m = _require_integer(payload[rows], rows), _require_integer(payload[cols], cols)
    if n < 1 or m < 1:
        raise ProbabilityError(f"{what}: {rows} and {cols} must be positive, got {n}, {m}")
    flat = _number_list(payload[values], values)
    if flat.size != n * m:
        raise ProbabilityError(
            f"{what}: {values} has {flat.size} entries, expected {rows}*{cols} = {n * m}"
        )
    return flat.reshape(n, m)


@dataclass(frozen=True, eq=False)
class Distribution:
    """A pmf on a finite alphabet {0, ..., n-1}."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _clean_pmf(self.probs, 1, "Distribution"))

    @property
    def alphabet_size(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        if _require_integer(n, "n") < 1:
            raise ProbabilityError(f"Distribution.uniform: n must be positive, got {n}")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def from_dict(cls, payload: dict) -> "Distribution":
        return cls(_number_list(payload["probs"], "probs"))

    def to_dict(self) -> dict:
        return {"probs": [float(v) for v in self.probs]}


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A joint pmf on {0..x_size-1} x {0..y_size-1}; every marginal mass is >= 2.2e-308."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _clean_pmf(self.probs, 2, "JointDistribution")
        if min(m.min() for m in _marginal_sums(arr)) < _LEAST_NORMAL:
            raise ProbabilityError("JointDistribution: a marginal has a zero or subnormal entry")
        object.__setattr__(self, "probs", arr)

    @property
    def x_size(self) -> int:
        return self.probs.shape[0]

    @property
    def y_size(self) -> int:
        return self.probs.shape[1]

    def swapped(self) -> "JointDistribution":
        """The same pair with the roles of X and Y exchanged: the transpose,
        bit for bit (_clean_pmf leaves a built pmf's bits alone)."""
        return JointDistribution(self.probs.T)

    @classmethod
    def from_dict(cls, payload: dict) -> "JointDistribution":
        return cls(_sized_matrix(payload, "x_size", "y_size", "probs", "JointDistribution"))

    def to_dict(self) -> dict:
        return {
            "x_size": self.x_size,
            "y_size": self.y_size,
            "probs": [float(v) for v in self.probs.ravel()],
        }


@dataclass(frozen=True, eq=False)
class Channel:
    """A row-stochastic matrix, one conditional pmf per input symbol."""

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _clean_pmf(self.rows, 2, "Channel", axis=1))

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def identity(cls, n: int) -> "Channel":
        return cls(np.eye(n))


def _entr(x) -> np.ndarray:
    """-x ln x elementwise for x >= 0, with 0 ln 0 = 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = -x[pos] * np.log(x[pos])
    return out


def entropy(p: Distribution) -> float:
    """Shannon entropy of p in bits."""
    return float(_entr(p.probs).sum() / LN2)


def kl_divergence(q: Distribution, p: Distribution) -> float:
    """D(q || p) in bits.  p must dominate q (no mass where p has none)."""
    if q.alphabet_size != p.alphabet_size:
        raise DimensionMismatchError(
            f"kl_divergence: alphabets {q.alphabet_size} vs {p.alphabet_size}"
        )
    support = p.probs > 0.0
    if np.any(q.probs[~support] > 0.0):
        raise ProbabilityError("kl_divergence: q puts mass where p has none")
    ps = p.probs[support]
    d = q.probs[support] - ps
    # Each term is >= 0; rounding can leave the sum a few ulps below 0.
    return max(float(_kl_rows(ps + d, d, ps)) / LN2, 0.0)


def marginals(j: JointDistribution) -> tuple[Distribution, Distribution]:
    """(P_X, P_Y) of the joint.  Both have full support by construction."""
    px, py = _marginal_sums(j.probs)
    return Distribution(px), Distribution(py)


def conditional(j: JointDistribution) -> Channel:
    """P(Y|X), one row per x; P(X|Y) is conditional(j.swapped())."""
    return Channel(j.probs / _marginal_sums(j.probs)[0][:, None])


def mutual_information(j: JointDistribution) -> float:
    """I(X;Y) in bits."""
    return _mi_from_matrix(j.probs)


def tensor_product(a: JointDistribution, b: JointDistribution) -> JointDistribution:
    """Joint law of the independent pair ((X1,X2), (Y1,Y2)).

    Index convention: pair (u, v) maps to u * (second alphabet size) + v on
    both axes, which is exactly the Kronecker product layout.
    """
    return JointDistribution(np.kron(a.probs, b.probs))


def _marginal_sums(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row sums, column sums) of a joint-like matrix: the one place a
    marginal is summed.

    numpy adds the entries of a C-contiguous row pairwise, but sums its
    columns one row at a time; from 8 terms on, the two orders can round
    differently.  Both marginals are therefore summed as rows, the column
    sums as the rows of the transpose copied contiguous, so the marginals of
    probs.T are those of probs swapped, bit for bit.
    """
    return (np.ascontiguousarray(probs).sum(axis=1),
            np.ascontiguousarray(probs.T).sum(axis=1))


def _kl_rows(A: np.ndarray, d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """D(a || p) in nats along the last axis, for a = A >= 0 and d = A - p.

    p has full support, and A is p + d as rounded in floats, or 0 where
    that is negative.  Summed as a log(1 + d/p) - d, a term per symbol that
    is non-negative in exact arithmetic, so rounding costs a few ulps of d
    per term, about 1e-16 / |d/p| relative, instead of a few ulps of a,
    which cancel across symbols when a is near p.
    """
    t = d / p
    # Every a > 0 has d/p > -1 in floats.  Where a == 0, one step above -1
    # keeps log1p finite, so the term is -d rather than 0 * -inf.
    np.maximum(t, _ABOVE_MINUS_ONE, out=t)
    np.log1p(t, out=t)
    t *= A
    t -= d
    return t.sum(axis=-1)


def _mi_from_matrix(pxy: np.ndarray) -> float:
    """Mutual information of a raw joint matrix, tolerating zero marginals.

    Internal helper for derived joints (e.g. X paired with an auxiliary U)
    that may legitimately have unused output symbols.  Summed by _kl_rows
    over the support of px (x) py, so a joint near independence keeps its
    digits instead of cancelling to a few ulps either side of zero.
    """
    px, py = _marginal_sums(pxy)
    rows, cols = px > 0.0, py > 0.0
    a = pxy[rows][:, cols]
    p = np.outer(px[rows], py[cols])
    # Each term is >= 0; rounding can leave the sum a few ulps below 0.
    return max(float(_kl_rows(a, a - p, p).sum()) / LN2, 0.0)
