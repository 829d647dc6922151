"""Scalar binary-information kernels and an exact finite-alphabet engine.

All logarithms are base 2; every quantity is in bits.  Probability masses
below 1e-15 are treated as exact zeros in entropy sums (the 0 log 0 = 0
convention).  The scalar kernels accept numpy arrays as well as floats and
broadcast elementwise; an argument outside the kernel's domain, NaN
included, raises ValueError.

A ``JointDistribution`` may hold a batch of distributions: its named
variables label the trailing axes of the pmf and any leading axes index the
batch.  Entropies and mutual informations of a batch are arrays of the batch
shape, computed by the same expressions as for a single distribution, which
gets floats.
"""

from __future__ import annotations

import numpy as np

ZERO_MASS = 1e-15
MAX_CELLS = 10**7


def _as_array(x, name, lo, hi):
    arr = np.asarray(x, dtype=float)
    if not ((arr >= lo).all() and (arr <= hi).all()):  # NaN fails both comparisons
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {x!r}")
    return arr


def _scalarize(arr, like):
    return float(arr) if np.isscalar(like) or np.ndim(like) == 0 else arr


def binary_entropy(p):
    """H2(p) = -p log2 p - (1-p) log2 (1-p) for p in [0, 1]."""
    arr = _as_array(p, "p", 0.0, 1.0)
    out = np.zeros_like(arr)
    interior = (arr > ZERO_MASS) & (arr < 1.0 - ZERO_MASS)
    q = arr[interior]
    out[interior] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return _scalarize(out, p)


def binary_convolution(a, b):
    """Crossover of two cascaded symmetric flips: a * b = (1-a)b + a(1-b)."""
    aa = _as_array(a, "a", 0.0, 1.0)
    bb = _as_array(b, "b", 0.0, 1.0)
    out = (1.0 - aa) * bb + aa * (1.0 - bb)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out)
    return out


def wz_rate_kernel(alpha, beta):
    """r(alpha, beta) = H2(alpha * beta) - H2(alpha) for alpha, beta in [0, 1/2].

    Nonnegative on its domain; decreasing in alpha, increasing in beta.
    """
    aa = _as_array(alpha, "alpha", 0.0, 0.5)
    bb = _as_array(beta, "beta", 0.0, 0.5)
    out = binary_entropy(binary_convolution(aa, bb)) - binary_entropy(aa)
    if np.ndim(alpha) == 0 and np.ndim(beta) == 0:
        return float(out)
    return out


class JointDistribution:
    """Dense pmf over a tuple of named finite alphabets, or a batch of them.

    ``names`` label the trailing axes of ``pmf``, one axis per variable in the
    order of ``names``.  Any leading axes are a batch of independent
    distributions (``batch_shape``; empty for a single distribution).  Every
    check holds per batch element: entries are finite and >= -ZERO_MASS, and
    each element sums to 1 within 1e-12; the MAX_CELLS cap applies to the
    whole array.  The object is immutable after construction; the pmf array
    is copied and write-locked.
    """

    __slots__ = ("names", "pmf")

    def __init__(self, names, pmf):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be unique, got {names}")
        arr = np.asarray(pmf)  # an ndarray is checked before it is copied
        if arr.ndim < len(names):
            raise ValueError(
                f"pmf has {arr.ndim} axes but {len(names)} variable names were given"
            )
        if arr.size > MAX_CELLS:
            raise ValueError(f"pmf has {arr.size} cells, exceeding the cap of {MAX_CELLS}")
        arr = np.array(arr, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError("pmf has non-finite entries (NaN or infinity)")
        if (arr < -ZERO_MASS).any():
            raise ValueError(f"pmf has negative entries (min {arr.min()})")
        total = arr.sum(axis=tuple(range(arr.ndim - len(names), arr.ndim)))
        worst = np.abs(total - 1.0).argmax()
        if abs(total.flat[worst] - 1.0) > 1e-12:
            raise ValueError(f"pmf must sum to 1 within 1e-12, got {total.flat[worst]}")
        arr[arr < 0] = 0.0
        arr.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "pmf", arr)

    def __setattr__(self, key, value):
        raise AttributeError("JointDistribution is immutable")

    @property
    def batch_shape(self) -> tuple:
        return self.pmf.shape[: self.pmf.ndim - len(self.names)]

    def axis(self, name: str) -> int:
        """Axis of ``pmf`` that holds variable ``name``."""
        try:
            return len(self.batch_shape) + self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}; have {self.names}") from None

    def marginal_pmf(self, names) -> np.ndarray:
        """Marginal pmf over ``names``: the batch axes, then ``names`` in order."""
        names = tuple(names)
        keep = [self.axis(n) for n in names]
        nb = len(self.batch_shape)
        drop = tuple(i for i in range(nb, self.pmf.ndim) if i not in keep)
        marg = self.pmf.sum(axis=drop) if drop else self.pmf
        # sum() preserves the original axis order of the kept variables
        kept_order = [n for n in self.names if n in names]
        perm = list(range(nb)) + [nb + kept_order.index(n) for n in names]
        return np.transpose(marg, perm)

    def entropy(self, names=None):
        """Joint entropy H(names) in bits (all variables when names is None).

        An array of the batch shape, or a float when there are no batch axes.
        """
        p = self.pmf if names is None else self.marginal_pmf(names)
        nb = len(self.batch_shape)
        plogp = p * np.log2(np.where(p > ZERO_MASS, p, 1.0))  # 0 log 0 = 0
        # one C-order row per element: zero cells add exact zeros, so a short
        # row sums like its nonzero cells alone
        h = -plogp.reshape(p.shape[:nb] + (-1,)).sum(axis=-1)
        return h if nb else float(h)


def mutual_information(joint: JointDistribution, group_a, group_b, given=()):
    """Conditional mutual information I(A; B | C) in bits by exact marginalization.

    The three name groups must be disjoint subsets of the joint's variables.
    An array of the joint's batch shape, or a float when it has no batch axes.
    """
    a = tuple(group_a) if not isinstance(group_a, str) else (group_a,)
    b = tuple(group_b) if not isinstance(group_b, str) else (group_b,)
    c = tuple(given) if not isinstance(given, str) else (given,)
    for name in a + b + c:
        joint.axis(name)  # raises KeyError for unknown names
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise ValueError(f"variable groups must be disjoint: A={a}, B={b}, C={c}")
    h_ac = joint.entropy(a + c)
    h_bc = joint.entropy(b + c)
    h_abc = joint.entropy(a + b + c)
    h_c = joint.entropy(c) if c else 0.0
    return h_ac + h_bc - h_abc - h_c
