"""Hamming-based diversity metrics over solution sets.

``ham`` is the normalized Hamming distance between two equal-length binary
vectors. ``dbin`` averages it over all unordered pairs of a set, so a set
duplicated element-for-element scores lower while relabeling solutions
changes nothing. ``dall`` extends to mixed sets via range-scaled
per-variable variances.
"""

import numpy as np

from .model import INT_TOL


def project_binary(x, binary_index):
    """0/1 vector of x restricted to the binary columns, in index order.

    Values are rounded to the nearest integer first; LP noise up to INT_TOL
    is expected, larger deviations raise.
    """
    vals = np.asarray(x, dtype=float)[np.asarray(binary_index, dtype=np.intp)]
    bits = np.rint(vals)
    dev = np.abs(vals - bits)
    if (dev > INT_TOL).any():
        worst = int(np.argmax(dev))
        raise ValueError(
            f"binary column {binary_index[worst]} has non-integral value {vals[worst]!r}"
        )
    return bits.astype(np.int8)


def ham(a, b) -> float:
    """Normalized Hamming distance: mean absolute difference of two bit vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"ham needs two equal-length vectors, got {a.shape} and {b.shape}")
    if a.size == 0:
        raise ValueError("ham is undefined for empty vectors")
    return float(np.abs(a - b).mean())


def dbin(projections) -> float:
    """Mean pairwise normalized Hamming distance over a set of bit vectors.

    Undefined for fewer than two solutions (callers report singleton
    diversity as 0 where a number is needed).
    """
    p = np.asarray(projections)
    if p.ndim != 2 or p.shape[0] < 2:
        raise ValueError("dbin needs at least two solutions")
    n, width = p.shape
    if width == 0:
        raise ValueError("dbin is undefined for zero-length projections")
    # sum over pairs of mean |a - b| equals, per bit, ones * (n - ones);
    # integer bits are counted in int64, with no float copy of the matrix:
    # every count and product is an exact integer below 2**53 either way
    ones = p.sum(axis=0, dtype=np.int64 if p.dtype.kind in "biu" else float)
    pair_total = float((ones * (n - ones)).sum()) / width
    return 2.0 * pair_total / (n * (n - 1))


def dall(solutions, ranges) -> float:
    """Range-scaled population-variance diversity of full solution vectors.

    ``ranges`` gives the scaling R per variable; variables with R <= 0 are
    skipped (an error if none remain). The value is the mean of var / R
    over the included variables.
    """
    s = np.asarray(solutions, dtype=float)
    if s.ndim != 2 or s.shape[0] < 2:
        raise ValueError("dall needs at least two solutions")
    r = np.asarray(ranges, dtype=float)
    if r.shape != (s.shape[1],):
        raise ValueError(f"need one range per variable, got {r.shape} for {s.shape[1]} variables")
    keep = r > 0
    if not np.any(keep):
        raise ValueError("all variables have zero range")
    var = s[:, keep].var(axis=0)  # population variance, ddof=0
    return float((var / r[keep]).mean())


def pairwise_ham(projections):
    """Dense matrix of pairwise normalized Hamming distances."""
    p = np.asarray(projections, dtype=float)
    if p.ndim != 2:
        raise ValueError("pairwise_ham needs a 2-d array of projections")
    n, width = p.shape
    if width == 0:
        raise ValueError("pairwise_ham is undefined for zero-length projections")
    q = 1.0 - p
    d = (p @ q.T + q @ p.T) / width
    np.fill_diagonal(d, 0.0)
    return d

