"""Roofline model (§6.3) tests."""
import pytest

from repro.roofline.model import (
    ARITHMETIC_INTENSITY,
    MachineRoof,
    measure_machine_roof,
    profile_codecs,
)


class TestMachineRoof:
    def test_measured_ceilings_positive(self):
        roof = measure_machine_roof(nbytes=1 << 24)
        assert roof.mem_bw_gbs > 0.5
        assert roof.compute_gops > 1.0
        assert roof.ridge_ai > 0

    def test_roof_shape(self):
        roof = MachineRoof(mem_bw_gbs=10.0, compute_gops=100.0)
        assert roof.ridge_ai == 10.0
        assert roof.roof_at(1.0) == 10.0   # bandwidth-limited
        assert roof.roof_at(50.0) == 100.0  # compute-limited


class TestProfiles:
    def test_every_table4_method_has_ai(self):
        from repro.codecs.base import TABLE4_METHODS

        assert set(TABLE4_METHODS) <= set(ARITHMETIC_INTENSITY)

    def test_classification_matches_paper(self):
        """Observation 10: transform codecs near the memory roof; ndzip and
        the per-value codecs compute-bound."""
        roof = MachineRoof(mem_bw_gbs=15.0, compute_gops=60.0)  # ridge at 4
        pts = profile_codecs(["MPC", "nv::btcomp", "Gorilla", "SPDP"], roof, scale=0.1)
        assert list(pts.columns) == [
            "method", "ai_ops_per_byte", "achieved_gops", "roof_gops", "bound", "utilization"
        ]
        bound = dict(zip(pts.method, pts.bound))
        assert bound == {
            "MPC": "memory", "nv::btcomp": "memory", "Gorilla": "compute", "SPDP": "compute"
        }

    def test_utilization_below_one_for_python_kernels(self):
        roof = measure_machine_roof(nbytes=1 << 24)
        (row,) = profile_codecs(["nv::btcomp"], roof, scale=0.1).itertuples()
        assert 0 < row.utilization < 1.5
        assert row.roof_gops == roof.roof_at(row.ai_ops_per_byte)
