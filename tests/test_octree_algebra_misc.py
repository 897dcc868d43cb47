"""Tests for compressed-field algebra, the kernel study, and the report
generator."""

from pathlib import Path

import numpy as np
import pytest

from repro.analysis.generate_report import generate_report
from repro.analysis.kernel_study import kernel_family_study
from repro.errors import ConfigurationError
from repro.octree.algebra import add, same_pattern, scale
from repro.octree.compress import CompressedField
from repro.octree.interpolate import reconstruct_dense
from repro.octree.sampling import build_flat_pattern


@pytest.fixture
def pattern():
    return build_flat_pattern(16, 4, (4, 4, 4), r=2)


@pytest.fixture
def fields(pattern, rng):
    a = CompressedField.from_dense(rng.standard_normal((16, 16, 16)), pattern)
    b = CompressedField.from_dense(rng.standard_normal((16, 16, 16)), pattern)
    return a, b


class TestCompressedAlgebra:
    def test_add_exact(self, fields):
        a, b = fields
        s = add(a, b)
        np.testing.assert_allclose(s.values, a.values + b.values)

    def test_add_commutes_with_reconstruction(self, fields):
        """Linearity: reconstruct(a + b) == reconstruct(a) + reconstruct(b)."""
        a, b = fields
        lhs = reconstruct_dense(add(a, b))
        rhs = reconstruct_dense(a) + reconstruct_dense(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_scale(self, fields):
        a, _ = fields
        np.testing.assert_allclose(scale(a, -2.5).values, -2.5 * a.values)

    def test_same_pattern_detects_mismatch(self, fields, rng):
        a, _ = fields
        other = build_flat_pattern(16, 4, (8, 8, 8), r=2)
        c = CompressedField.from_dense(rng.standard_normal((16, 16, 16)), other)
        assert not same_pattern(a, c)
        with pytest.raises(ConfigurationError):
            add(a, c)

    def test_identical_pattern_object(self, fields):
        a, b = fields
        assert same_pattern(a, b)


class TestKernelStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        return kernel_family_study(n=16, k=4)

    def test_all_families_present(self, rows):
        families = {r.family for r in rows}
        assert families == {
            "gaussian-sharp", "gaussian-smooth", "yukawa", "poisson"
        }

    def test_shared_budget(self, rows):
        ratios = {round(r.compression_ratio, 6) for r in rows}
        assert len(ratios) == 1  # same pattern for every kernel

    def test_support_orders_by_decay(self, rows):
        by = {r.family: r for r in rows}
        assert by["gaussian-sharp"].support_radius < by["poisson"].support_radius

    def test_errors_finite_and_bounded(self, rows):
        assert all(0 <= r.l2_error < 1 for r in rows)


class TestReportGenerator:
    @pytest.fixture(scope="class")
    def report_text(self):
        return generate_report(fast=True)

    def test_contains_all_sections(self, report_text):
        for section in (
            "Table 1", "Table 2", "Table 3", "Table 4",
            "Figure 1", "Figure 3", "Eq 1 vs Eq 6", "MASSIF",
        ):
            assert section in report_text

    def test_paper_values_present(self, report_text):
        assert "N=8192" in report_text  # Table 1 rows
        assert "0.4945" in report_text or "0.494" in report_text  # §2.1

    def test_committed_report_is_current(self, report_text):
        """``docs/REPORT.md`` is ``python -m repro report``'s output."""
        committed = Path(__file__).parent.parent / "docs" / "REPORT.md"
        assert committed.read_text() == report_text + "\n"
