"""Euclidean norms that neither underflow nor overflow."""

from __future__ import annotations

import numpy as np

__all__ = ["row_norms"]


def row_norms(delta) -> np.ndarray:
    """Euclidean norm of each row of ``delta`` (the last axis is summed).

    Each row is scaled by the power of two of its largest ``|component|``
    before squaring, as ``math.hypot`` does, so a row whose squares would
    all underflow (``3.41e-204 ** 2 == 0.0``) keeps a non-zero norm.
    Power-of-two scaling is exact: wherever the plain
    ``sqrt(sum(delta**2))`` neither underflows nor overflows, the result is
    bit-identical to it.
    """
    delta = np.abs(np.asarray(delta, dtype=np.float64))
    _, exp = np.frexp(delta.max(axis=-1, keepdims=True))
    scaled = np.ldexp(delta, -exp)
    return np.ldexp(np.sqrt((scaled * scaled).sum(axis=-1)), exp[..., 0])
