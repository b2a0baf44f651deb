"""Bucket proximity measures.

The minimax algorithm weights bucket pairs by "the probability that they are
accessed together by a query".  Following the paper, the default surrogate
is the **proximity index** of Kamel & Faloutsos (Parallel R-trees, SIGMOD
1992), defined for d-dimensional boxes R, S as the product over dimensions of

* ``(1 + 2·δ_i) / 3``   if the projections intersect (``δ_i`` = intersection
  length / domain length), and
* ``(1 - Δ_i)² / 3``    if they are disjoint (``Δ_i`` = gap / domain length).

Both branches equal 1/3 at a touching boundary, so the index is continuous;
it lies in ``(0, 1]`` and equals 1 only for two copies of the full domain.
The Euclidean center distance is provided as the ablation alternative the
paper argues against (it ignores partial overlap of box-shaped buckets).
"""

from __future__ import annotations

import numpy as np

from repro._util import check_lengths

__all__ = [
    "proximity_index",
    "proximity_matrix",
    "IntervalWeights",
    "center_distance",
    "euclidean_similarity",
]


def _dim_factors(lo_a, hi_a, lo_b, hi_b, lengths):
    """Per-dimension proximity factors with broadcasting."""
    inter = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    lengths = np.asarray(lengths, dtype=np.float64)
    delta = np.clip(inter, 0.0, None) / lengths
    gap = np.clip(-inter, 0.0, None) / lengths
    intersecting = inter >= 0
    return np.where(intersecting, (1.0 + 2.0 * delta) / 3.0, (1.0 - gap) ** 2 / 3.0)


def proximity_index(lo_a, hi_a, lo_b, hi_b, lengths) -> np.ndarray:
    """Proximity index between boxes, with numpy broadcasting.

    Parameters
    ----------
    lo_a, hi_a:
        First operand box(es); any shape broadcastable against the second,
        last axis = dimension.
    lo_b, hi_b:
        Second operand box(es).
    lengths:
        Domain extent per dimension (``L_k``).

    Returns
    -------
    numpy.ndarray
        Proximity values in ``(0, 1]``, shape = broadcast shape minus the
        last (dimension) axis.

    Examples
    --------
    One bucket against all others (the minimax inner loop)::

        p = proximity_index(lo[y], hi[y], lo, hi, domain_lengths)   # (n,)
    """
    lo_a = np.asarray(lo_a, dtype=np.float64)
    hi_a = np.asarray(hi_a, dtype=np.float64)
    lo_b = np.asarray(lo_b, dtype=np.float64)
    hi_b = np.asarray(hi_b, dtype=np.float64)
    factors = _dim_factors(lo_a, hi_a, lo_b, hi_b, lengths)
    return np.prod(factors, axis=-1)


def proximity_matrix(lo, hi, lengths) -> np.ndarray:
    """Full pairwise proximity matrix of ``n`` boxes (``(n, n)``, symmetric).

    Assembled from the per-dimension interval tables of
    :class:`IntervalWeights`; entry ``[i, j]`` is bit-for-bit
    ``proximity_index(lo[i], hi[i], lo[j], hi[j], lengths)``.  O(n²) time
    and memory plus ``Σ U_k²`` for the tables.
    """
    return IntervalWeights(lo, hi, lengths).matrix()


class IntervalWeights:
    """Pairwise box weights of ``n`` boxes, factored per dimension.

    Both edge weights factor per dimension: the proximity index is a
    product of per-dimension factors and the squared normalized center
    distance is a sum of per-dimension squares.  Grid-file bucket regions
    are unions of cells bounded by the scales, so dimension ``k`` has only
    ``U_k`` distinct ``(lo, hi)`` intervals; every box keeps the index of
    its interval, and the term of a box pair in dimension ``k`` is an entry
    of a ``U_k × U_k`` table.

    :meth:`row` folds the dimensions left to right (``*`` for proximity,
    ``+`` then ``1 / (1 + sqrt)`` for Euclidean), the order in which
    ``np.prod`` and ``np.sum`` reduce a short last axis, so row ``y`` is
    bit-for-bit ``weight_fn(lo[y], hi[y], lo, hi, lengths)``.  (``np.sum``
    reorders eight or more terms, so from ``d = 8`` Euclidean rows agree
    to rounding only.)  Before
    :meth:`build_tables` (or when the tables would not pay for their
    memory) each row's terms are computed at call time from the distinct
    intervals instead: O(Σ U_k + n·d) per row and O(n·d) memory.

    Parameters
    ----------
    lo, hi:
        ``(n, d)`` box bounds.
    lengths:
        Domain extent per dimension: ``(d,)``, finite and positive.
    weight:
        ``"proximity"`` (:func:`proximity_index`) or ``"euclidean"``
        (:func:`euclidean_similarity`).
    """

    WEIGHTS = ("proximity", "euclidean")

    def __init__(self, lo, hi, lengths, weight: str = "proximity"):
        if weight not in self.WEIGHTS:
            raise ValueError(f"unknown weight {weight!r}; choose from {sorted(self.WEIGHTS)}")
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        lengths = check_lengths(lengths, lo.shape[1])
        self.weight = weight
        self.n = lo.shape[0]
        #: Per dimension: distinct interval bounds, each box's interval
        #: index and the domain length.
        self.dims = []
        for k in range(lo.shape[1]):
            pairs = np.stack([lo[:, k], hi[:, k]], axis=1)
            uniq, idx = np.unique(pairs, axis=0, return_inverse=True)
            self.dims.append((uniq[:, 0].copy(), uniq[:, 1].copy(), idx.reshape(-1), lengths[k]))
        #: The ``U_k × U_k`` term tables, or None while rows are streamed.
        self.tables: "list[np.ndarray] | None" = None

    @property
    def table_bytes(self) -> int:
        """Memory the term tables take once built (``Σ U_k² · 8``)."""
        return 8 * sum(ulo.size ** 2 for ulo, _, _, _ in self.dims)

    def _terms(self, lo_a, hi_a, lo_b, hi_b, length) -> np.ndarray:
        """One dimension's terms with broadcasting."""
        if self.weight == "proximity":
            return _dim_factors(lo_a, hi_a, lo_b, hi_b, length)
        diff = ((lo_a + hi_a) / 2.0 - (lo_b + hi_b) / 2.0) / length
        return diff * diff

    def _fold(self, acc, terms):
        if acc is None:
            return terms
        return np.multiply(acc, terms, out=acc) if self.weight == "proximity" else np.add(acc, terms, out=acc)

    def _finish(self, acc) -> np.ndarray:
        return acc if self.weight == "proximity" else 1.0 / (1.0 + np.sqrt(acc))

    def build_tables(self) -> "IntervalWeights":
        """Fill the ``U_k × U_k`` term table of every dimension."""
        if self.tables is None:
            self.tables = [
                self._terms(ulo[:, None], uhi[:, None], ulo, uhi, length)
                for ulo, uhi, _, length in self.dims
            ]
        return self

    def row(self, y: int) -> np.ndarray:
        """Weights of box ``y`` against all ``n`` boxes (``(n,)``)."""
        acc = None
        for k, (ulo, uhi, idx, length) in enumerate(self.dims):
            u = idx[y]
            if self.tables is not None:
                terms = self.tables[k][u]
            else:
                terms = self._terms(ulo[u], uhi[u], ulo, uhi, length)
            acc = self._fold(acc, terms.take(idx))
        return self._finish(acc)

    def matrix(self) -> np.ndarray:
        """All ``n × n`` weights; row ``i`` equals :meth:`row` ``(i)``."""
        self.build_tables()
        acc = None
        for table, (_, _, idx, _) in zip(self.tables, self.dims):
            acc = self._fold(acc, table[np.ix_(idx, idx)])
        return self._finish(acc)


def center_distance(lo_a, hi_a, lo_b, hi_b, lengths=None) -> np.ndarray:
    """Euclidean distance between box centers (optionally domain-normalized)."""
    lo_a = np.asarray(lo_a, dtype=np.float64)
    hi_a = np.asarray(hi_a, dtype=np.float64)
    lo_b = np.asarray(lo_b, dtype=np.float64)
    hi_b = np.asarray(hi_b, dtype=np.float64)
    ca = (lo_a + hi_a) / 2.0
    cb = (lo_b + hi_b) / 2.0
    diff = ca - cb
    if lengths is not None:
        diff = diff / np.asarray(lengths, dtype=np.float64)
    return np.sqrt(np.sum(diff * diff, axis=-1))


def euclidean_similarity(lo_a, hi_a, lo_b, hi_b, lengths) -> np.ndarray:
    """A similarity in ``(0, 1]`` derived from normalized center distance.

    ``1 / (1 + d)`` with ``d`` the domain-normalized center distance; used as
    the drop-in edge weight for the proximity-vs-Euclidean ablation.
    """
    return 1.0 / (1.0 + center_distance(lo_a, hi_a, lo_b, hi_b, lengths))
