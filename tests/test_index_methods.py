"""Tests for the index-based declustering schemes (DM, FX, HCAM)."""

import numpy as np
import pytest

from repro.core import HCAM, DiskModulo, FieldwiseXor, validate_assignment
from repro.gridfile import cartesian_product_file


@pytest.fixture
def cpf():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(400, 2))
    return cartesian_product_file(pts, [0, 0], [1, 1], (8, 8))


class TestCellFunctions:
    def test_dm_formula(self):
        cells = np.array([[0, 0], [1, 2], [3, 3]])
        out = DiskModulo().cell_disks(cells, 4, (4, 4))
        assert out.tolist() == [0, 3, 2]

    def test_fx_formula(self):
        cells = np.array([[0, 0], [1, 2], [3, 3], [5, 3]])
        out = FieldwiseXor().cell_disks(cells, 4, (8, 8))
        assert out.tolist() == [0, 3, 0, (5 ^ 3) % 4]

    def test_dm_3d(self):
        cells = np.array([[1, 2, 3]])
        assert DiskModulo().cell_disks(cells, 5, (4, 4, 4))[0] == 1

    def test_hcam_rank_balanced_on_any_grid(self):
        """Rank mode deals cells round-robin even on non-power-of-two grids."""
        grid = HCAM().disk_grid((6, 5), 4)
        counts = np.bincount(grid.ravel(), minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_hcam_raw_equals_rank_on_full_cube(self):
        raw = HCAM(mode="raw").disk_grid((8, 8), 4)
        rank = HCAM(mode="rank").disk_grid((8, 8), 4)
        assert np.array_equal(raw, rank)

    def test_hcam_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            HCAM(mode="other")

    def test_hcam_rejects_bad_curve(self):
        with pytest.raises(ValueError):
            HCAM(curve="peano")

    def test_hcam_cell_disks_matches_disk_grid(self):
        h = HCAM()
        shape = (6, 5)
        grid = h.disk_grid(shape, 3)
        cells = np.array([[0, 0], [3, 2], [5, 4]])
        assert np.array_equal(h.cell_disks(cells, 3, shape), grid[tuple(cells.T)])

    def test_hcam_alternative_curve_names(self):
        h = HCAM(curve="zorder")
        assert "ZOrder" in h.name


class TestDMOptimality:
    """DM is strictly optimal for partial-match queries with one
    unspecified attribute (Du & Sobolewski) — check on a Cartesian grid."""

    @pytest.mark.parametrize("n_disks", [2, 3, 4, 5, 8])
    def test_one_unspecified_attribute(self, n_disks):
        grid = DiskModulo().disk_grid((12, 12), n_disks)
        # Pin dimension 0 to any row: the 12 buckets of the row must be
        # spread as evenly as possible.
        for row in range(12):
            counts = np.bincount(grid[row], minlength=n_disks)
            assert counts.max() == -(-12 // n_disks)


class TestAssignOnGridFiles:
    @pytest.mark.parametrize("method_cls", [DiskModulo, FieldwiseXor, HCAM])
    def test_assignment_valid(self, small_gridfile, method_cls, rng):
        for m in (2, 5, 16):
            a = method_cls().assign(small_gridfile, m, rng=rng)
            validate_assignment(a, small_gridfile.n_buckets, m)

    @pytest.mark.parametrize("method_cls", [DiskModulo, FieldwiseXor, HCAM])
    def test_assignment_respects_alternatives(self, small_gridfile, method_cls, rng):
        """The chosen disk must be one of the bucket's per-cell disks."""
        method = method_cls()
        m = 7
        a = method.assign(small_gridfile, m, rng=rng)
        grid = method.disk_grid(small_gridfile.directory.shape, m)
        lo, hi = small_gridfile.bucket_cell_boxes()
        for bid in range(small_gridfile.n_buckets):
            alts = np.unique(grid[tuple(map(slice, lo[bid], hi[bid]))])
            assert a[bid] in alts

    def test_cartesian_assign_matches_cell_function(self, cpf):
        """On a Cartesian product file there are no conflicts: the lifted
        assignment equals the raw per-cell mapping."""
        for method in (DiskModulo(), FieldwiseXor(), HCAM()):
            a = method.assign(cpf, 4, rng=0)
            grid = method.disk_grid(cpf.directory.shape, 4)
            assert np.array_equal(a, grid.ravel())

    def test_conflict_heuristic_changes_name(self):
        assert DiskModulo("random").name == "DM/R"
        assert FieldwiseXor("area_balance").name == "FX/A"
        assert HCAM("most_frequent").name == "HCAM/F"

    def test_unknown_conflict_rejected(self):
        with pytest.raises(ValueError):
            DiskModulo("fair")


class TestValidateAssignment:
    def test_ok(self):
        out = validate_assignment([0, 1, 2], 3, 3)
        assert out.dtype == np.int64

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_assignment([0, 1], 3, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            validate_assignment([0, 3, 1], 3, 3)
        with pytest.raises(ValueError):
            validate_assignment([-1, 0, 1], 3, 3)
