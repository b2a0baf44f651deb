"""Cross-cutting property tests (hypothesis) for the event kernel, the
directory refinement machinery and assignment invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_method
from repro.gridfile import Directory, Scales
from repro.parallel import Resource, Simulator


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 10)), min_size=1, max_size=40))
def test_resource_reservations_fifo(reqs):
    """Property: FIFO reservations never overlap, never precede their
    earliest time, and busy_time equals the sum of durations."""
    r = Resource("x")
    prev_end = 0.0
    total = 0.0
    for earliest, duration in reqs:
        start, end = r.reserve(earliest, duration)
        assert start >= earliest
        assert start >= prev_end  # no overlap with any earlier reservation
        assert end == start + duration
        prev_end = end
        total += duration
    assert r.busy_time == pytest.approx(total)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 50), st.integers(0, 1000)),
        min_size=1,
        max_size=50,
        unique_by=lambda t: t[1],
    )
)
def test_simulator_fires_in_order(events):
    """Property: callbacks observe a non-decreasing clock, every event fires
    exactly once, and ties preserve insertion order."""
    sim = Simulator()
    log = []
    for delay, tag in events:
        sim.schedule(delay, lambda t=tag: log.append((sim.now, t)))
    sim.run()
    assert len(log) == len(events)
    times = [t for t, _ in log]
    assert times == sorted(times)
    # Tie-break check: equal-time events in insertion order.
    by_time: dict[float, list[int]] = {}
    order = {tag: i for i, (_, tag) in enumerate(events)}
    for t, tag in log:
        by_time.setdefault(t, []).append(order[tag])
    for tags in by_time.values():
        assert tags == sorted(tags)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_directory_refinement_preserves_regions(data):
    """Property: any sequence of refinements keeps each original bucket's
    cells contiguous (a box) and its total cell count consistent."""
    rng_seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    # Paint the directory with a valid box tiling: quadrants.
    grid = np.zeros(shape, dtype=np.int32)
    if shape[0] > 1:
        grid[shape[0] // 2 :, :] = 1
    if shape[1] > 1:
        grid[:, shape[1] // 2 :] += 2
    d = Directory.from_array(grid)
    ids = np.unique(grid)
    n_refinements = data.draw(st.integers(1, 6))
    for _ in range(n_refinements):
        dim = int(rng.integers(0, 2))
        interval = int(rng.integers(0, d.shape[dim]))
        d.refine(dim, interval)
    for bid in ids:
        lo, hi = d.region_of(int(bid))
        # The bounding box contains only this bucket: still a box region.
        assert (d.grid[tuple(map(slice, lo, hi))] == bid).all()
    assert d.n_cells == np.prod(d.shape)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["dm/D", "fx/D", "hcam/D", "gdm/D", "ssp", "minimax", "randomrr"]),
    st.integers(2, 12),
    st.integers(0, 2**31 - 1),
)
def test_any_method_produces_valid_assignment(spec, m, seed):
    """Property: every registered method yields a complete, in-range
    assignment on an arbitrary small grid file."""
    from repro.gridfile import bulk_load

    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    pts = rng.uniform(0, 1, size=(n, 2)) ** rng.uniform(0.5, 2.0)
    gf = bulk_load(pts, [0, 0], [1, 1], capacity=max(2, n // 10))
    a = make_method(spec).assign(gf, m, rng=seed)
    assert a.shape == (gf.n_buckets,)
    assert a.min() >= 0 and a.max() < m


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_scales_locate_total_and_consistent(seed):
    """Property: locate() maps every domain point to a valid cell whose
    interval actually contains it."""
    rng = np.random.default_rng(seed)
    b0 = np.unique(rng.uniform(0.1, 9.9, size=rng.integers(0, 6)))
    b1 = np.unique(rng.uniform(0.1, 9.9, size=rng.integers(0, 6)))
    s = Scales([0.0, 0.0], [10.0, 10.0], [b0, b1])
    pts = rng.uniform(0, 10, size=(50, 2))
    cells = s.locate(pts)
    for k in range(2):
        assert (cells[:, k] >= 0).all()
        assert (cells[:, k] < s.nintervals[k]).all()
        for p, c in zip(pts[:, k], cells[:, k]):
            lo, hi = s.interval(k, int(c))
            last = int(c) == s.nintervals[k] - 1
            assert lo <= p and (p < hi or (last and p <= hi))
