"""Tests for the Table 2 design points: areas, schedules, op costs."""

import pytest

from repro.arch import (
    CaratDesign,
    GemmOp,
    MugiDesign,
    MugiLDesign,
    NonlinearOp,
    SystolicDesign,
    TensorCoreDesign,
    VectorArrayConfig,
    VectorArrayUnit,
    make_design,
)
from repro.errors import ConfigError, MappingError


class TestAreaBreakdowns:
    def test_mugi_categories_present(self):
        b = MugiDesign(height=128).area_breakdown()
        for cat in ("tc", "pe", "acc", "vr", "fifo", "vector", "sram"):
            assert b.get(cat) > 0, cat

    def test_mugi_area_scales_linearly_with_height(self):
        """Paper §6.3.1: Mugi area grows linearly with array size."""
        a64 = MugiDesign(height=64).area_breakdown().array_mm2
        a256 = MugiDesign(height=256).area_breakdown().array_mm2
        assert a256 / a64 == pytest.approx(4.0, rel=0.35)

    def test_systolic_area_scales_quadratically(self):
        a16 = SystolicDesign(dim=16).area_breakdown().get("pe")
        a64 = SystolicDesign(dim=64).area_breakdown().get("pe")
        assert a64 / a16 == pytest.approx(16.0, rel=0.05)

    def test_carat_buffers_dominate_mugi_buffers(self):
        """Fig. 13: Carat's FIFO slice is several times Mugi's."""
        mugi = MugiDesign(height=128).area_breakdown().get("fifo")
        carat = CaratDesign(height=128).area_breakdown().get("fifo")
        assert carat > 3.5 * mugi

    def test_mugi_l_pays_for_dedicated_luts(self):
        """Fig. 13: Mugi-L spends far more area on nonlinear hardware."""
        mugi = MugiDesign(height=128)
        mugi_l = MugiLDesign(height=128)
        assert mugi_l.area_mm2 > mugi.area_mm2
        assert mugi_l.area_breakdown().get("nonlinear") > 0.1

    def test_figna_pe_slightly_larger(self):
        """Table 3: SA-F ~9% more PE area than SA."""
        sa = SystolicDesign(dim=16, figna=False).area_breakdown().get("pe")
        sa_f = SystolicDesign(dim=16, figna=True).area_breakdown().get("pe")
        assert 1.05 < sa_f / sa < 1.13

    def test_single_node_areas_in_paper_range(self):
        """Table 3 OC areas: single nodes are a few mm²."""
        assert 1.0 < MugiDesign(height=128).area_mm2 < 3.5
        assert 1.5 < SystolicDesign(dim=16).area_mm2 < 4.0
        assert 15 < SystolicDesign(dim=64).area_mm2 < 35

    def test_leakage_proportional_to_area(self):
        d = MugiDesign(height=128)
        assert d.leakage_w() == pytest.approx(
            d.area_mm2 * d.tech.leakage_w_per_mm2)


class TestMugiGemmCost:
    def test_batch8_cycles_match_schedule(self):
        d = MugiDesign(height=128)
        op = GemmOp(m=8, k=1024, n=1024)
        cost = d.gemm_cost(op)
        assert cost.cycles == pytest.approx(8 * 1024 * 8 + 7, rel=0.01)

    def test_energy_positive_and_scales(self):
        d = MugiDesign(height=128)
        small = d.gemm_cost(GemmOp(m=8, k=256, n=256))
        large = d.gemm_cost(GemmOp(m=8, k=512, n=512))
        assert 0 < small.energy_pj < large.energy_pj

    def test_resident_weights_skip_hbm(self):
        d = MugiDesign(height=128)
        streamed = d.gemm_cost(GemmOp(m=8, k=256, n=256))
        resident = d.gemm_cost(GemmOp(m=8, k=256, n=256,
                                      weights_resident=True))
        assert resident.hbm_bytes < streamed.hbm_bytes

    def test_energy_per_mac_below_systolic(self):
        """The VLP energy claim: no multipliers, amortized adds."""
        op = GemmOp(m=8, k=4096, n=4096, weights_resident=True)
        mugi = MugiDesign(height=128).gemm_cost(op)
        sa = SystolicDesign(dim=16).gemm_cost(op)
        assert mugi.energy_pj < sa.energy_pj


class TestSystolicGemmCost:
    def test_weight_stationary_tile_turnaround(self):
        """Batch 8 on dim 16: utilization ~ m/dim (the Table 3 cliff)."""
        sa = SystolicDesign(dim=16)
        op = GemmOp(m=8, k=1024, n=1024)
        cost = sa.gemm_cost(op)
        tiles = (1024 // 16) ** 2
        assert cost.cycles == pytest.approx(tiles * 16 + 32, rel=0.01)

    def test_large_batch_restores_utilization(self):
        sa = SystolicDesign(dim=16)
        low = sa.gemm_cost(GemmOp(m=8, k=512, n=512))
        high = sa.gemm_cost(GemmOp(m=64, k=512, n=512))
        # 8x the work in only (64/16)x the cycles.
        assert high.cycles / low.cycles == pytest.approx(4.0, rel=0.05)

    def test_scaled_up_array_underutilized_at_batch8(self):
        """SA(64) at m=8 delivers ~4x SA(16), not 16x (Table 3)."""
        op = GemmOp(m=8, k=2048, n=2048)
        t16 = SystolicDesign(dim=16).gemm_cost(op).cycles
        t64 = SystolicDesign(dim=64).gemm_cost(op).cycles
        assert t16 / t64 == pytest.approx(4.0, rel=0.1)

    def test_figna_same_cycles_more_energy(self):
        op = GemmOp(m=8, k=512, n=512)
        sa = SystolicDesign(dim=16, figna=False).gemm_cost(op)
        sa_f = SystolicDesign(dim=16, figna=True).gemm_cost(op)
        assert sa.cycles == sa_f.cycles
        assert sa_f.energy_pj > sa.energy_pj


class TestTensorCore:
    def test_peak_macs(self):
        assert TensorCoreDesign().peak_macs_per_cycle == 2048

    def test_batch8_full_m_dim(self):
        tc = TensorCoreDesign()
        cost = tc.gemm_cost(GemmOp(m=8, k=4096, n=4096))
        ideal = 8 * 4096 * 4096 / 2048
        assert cost.cycles == pytest.approx(ideal, rel=0.01)


class TestNonlinearCosts:
    def test_mugi_softmax_throughput_near_height(self):
        """Softmax and SiLU share ~H elements/cycle (the paper's 'shared
        normalized throughput'): the normalize pass is overlapped."""
        d = MugiDesign(height=128)
        op = NonlinearOp(op="softmax", elements=128 * 1024, rows=256)
        cost = d.nonlinear_cost(op)
        eff = op.elements / cost.cycles
        assert eff > 0.9 * d.height

    def test_mugi_silu_throughput_equals_height(self):
        d = MugiDesign(height=128)
        op = NonlinearOp(op="silu", elements=128 * 1024)
        cost = d.nonlinear_cost(op)
        assert op.elements / cost.cycles == pytest.approx(128, rel=0.05)

    def test_mugi_beats_precise_vector_array_by_orders(self):
        """Fig. 11: tens of x throughput, hundreds of x energy."""
        elements = 64 * 1024
        op = NonlinearOp(op="silu", elements=elements)
        mugi = MugiDesign(height=128).nonlinear_cost(op)
        va = VectorArrayUnit(VectorArrayConfig(lanes=16, mode="precise"))
        va_cost = va.cost(op)
        assert va_cost.cycles / mugi.cycles > 20
        assert va_cost.energy_pj / mugi.energy_pj > 100

    def test_vector_array_mode_ordering(self):
        """PWL is fastest of the VA approximations; precise slowest."""
        op = NonlinearOp(op="silu", elements=16384)
        cycles = {}
        for mode in ("precise", "taylor", "pwl"):
            va = VectorArrayUnit(VectorArrayConfig(lanes=16, mode=mode))
            cycles[mode] = va.cost(op).cycles
        assert cycles["pwl"] < cycles["taylor"] < cycles["precise"]

    def test_pwl_area_exceeds_taylor_area(self):
        """Paper §2.2: PWL needs per-lane comparators/coefficients."""
        pwl = VectorArrayUnit(VectorArrayConfig(lanes=16, mode="pwl"))
        taylor = VectorArrayUnit(VectorArrayConfig(lanes=16, mode="taylor"))
        assert pwl.area_mm2() > taylor.area_mm2()

    def test_carat_nonlinear_slower_than_mugi(self):
        """Paper §6.3.1: Carat relies on non-VLP approximations."""
        op = NonlinearOp(op="softmax", elements=64 * 1024, rows=128)
        mugi = MugiDesign(height=128).nonlinear_cost(op)
        carat = CaratDesign(height=128).nonlinear_cost(op)
        assert carat.cycles > 2 * mugi.cycles

    def test_mugi_l_same_cycles_more_energy(self):
        op = NonlinearOp(op="silu", elements=32768)
        mugi = MugiDesign(height=128).nonlinear_cost(op)
        mugi_l = MugiLDesign(height=128).nonlinear_cost(op)
        assert mugi_l.cycles == mugi.cycles
        assert mugi_l.energy_pj > mugi.energy_pj


class TestFactory:
    @pytest.mark.parametrize("kind", ["mugi", "mugi-l", "carat", "sa",
                                      "sa-f", "sd", "sd-f", "tensor"])
    def test_all_kinds_constructible(self, kind):
        d = make_design(kind, 32)
        assert d.area_mm2 > 0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_design("tpu", 16)

    def test_invalid_op_dims(self):
        with pytest.raises(MappingError):
            GemmOp(m=0, k=1, n=1)
        with pytest.raises(MappingError):
            NonlinearOp(op="softmax", elements=10, rows=0)
        with pytest.raises(MappingError, match="tanh"):
            NonlinearOp(op="tanh", elements=8)
