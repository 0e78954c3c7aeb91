"""Tests for the two-level memory hierarchy with double buffering."""

import itertools

import pytest

from repro.hw.energy import EnergyBudget, EnergyModel
from repro.hw.technology import CALIBRATION_NODE, get_node, scale_energy
from repro.memory.hierarchy import MemoryHierarchy, TransferRequest

LEVELS = ("hbm", "cmem", "vmem", "compute")


@pytest.fixture(scope="module")
def hierarchy():
    return MemoryHierarchy()


def walked(hierarchy, num_bytes, source, destination, coalesced):
    """Reference transfer: walk the level path one hop at a time.

    Each hop's cycles come from the component models and its energy from
    the per-byte figures derived from the energy model's fields, into a
    budget of its own that is then added, entry by entry, to the
    transfer's.  The hierarchy must match it bit for bit, in the same
    component order.
    """
    model = hierarchy.energy_model

    def per_byte(pj):
        return scale_energy(pj * 1e-12, CALIBRATION_NODE, model.technology)

    i, j = LEVELS.index(source), LEVELS.index(destination)
    path = list(LEVELS[i:j + 1]) if i < j else list(reversed(LEVELS[j:i + 1]))
    cycles = 0.0
    energy = EnergyBudget()
    for src, dst in zip(path[:-1], path[1:]):
        hop = EnergyBudget()
        pair = {src, dst}
        if pair == {"hbm", "cmem"}:
            hop_cycles = hierarchy.main_memory.transfer_cycles(num_bytes, coalesced)
            hop.add_dynamic("hbm", model.hbm_pj_per_byte * 1e-12 * num_bytes)
            hop.add_dynamic("cmem", per_byte(model.cmem_pj_per_byte) * num_bytes)
        elif pair == {"cmem", "vmem"}:
            hop_cycles = max(hierarchy.oci.transfer_cycles(num_bytes),
                             hierarchy.cmem.read_cycles(num_bytes),
                             hierarchy.vmem.write_cycles(num_bytes))
            hop.add_dynamic("cmem", per_byte(model.cmem_pj_per_byte) * num_bytes)
            hop.add_dynamic("vmem", per_byte(model.vmem_pj_per_byte) * num_bytes)
        else:
            hop_cycles = hierarchy.vmem.read_cycles(num_bytes)
            hop.add_dynamic("vmem", per_byte(model.vmem_pj_per_byte) * num_bytes)
        cycles = max(cycles, hop_cycles)
        for component, joules in hop.dynamic_joules.items():
            energy.add_dynamic(component, joules)
    return cycles, list(energy.dynamic_joules.items()), list(energy.leakage_joules.items())


class TestTransferRequest:
    def test_valid_request(self):
        request = TransferRequest(1024, "hbm", "cmem")
        assert request.num_bytes == 1024

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            TransferRequest(1024, "cmem", "cmem")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            TransferRequest(1024, "l2", "cmem")

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TransferRequest(-1, "hbm", "cmem")


class TestTransfers:
    def test_hbm_to_cmem_bandwidth_bound(self, hierarchy):
        num_bytes = 64 * 2**20
        result = hierarchy.hbm_to_cmem(num_bytes)
        ideal = num_bytes / hierarchy.main_memory.config.bytes_per_cycle
        assert result.cycles >= ideal

    def test_cmem_to_vmem_uses_oci(self, hierarchy):
        num_bytes = 2 * 2**20
        result = hierarchy.cmem_to_vmem(num_bytes)
        assert result.cycles >= num_bytes / hierarchy.oci.config.bandwidth_bytes_per_cycle

    def test_hbm_to_vmem_is_pipelined_max_of_hops(self, hierarchy):
        num_bytes = 8 * 2**20
        through = hierarchy.hbm_to_vmem(num_bytes).cycles
        hop1 = hierarchy.hbm_to_cmem(num_bytes).cycles
        hop2 = hierarchy.cmem_to_vmem(num_bytes).cycles
        assert through == pytest.approx(max(hop1, hop2))

    def test_transfer_energy_accumulates_components(self, hierarchy):
        result = hierarchy.hbm_to_vmem(1 << 20)
        assert result.energy.component_total("hbm") > 0
        assert result.energy.component_total("cmem") > 0
        assert result.energy.component_total("vmem") > 0

    def test_vmem_to_cmem_direction(self, hierarchy):
        result = hierarchy.vmem_to_cmem(1 << 20)
        assert result.cycles > 0

    def test_strided_transfer_slower(self, hierarchy):
        num_bytes = 16 * 2**20
        assert hierarchy.hbm_to_cmem(num_bytes, coalesced=False).cycles > \
            hierarchy.hbm_to_cmem(num_bytes, coalesced=True).cycles


class TestEveryPath:
    """Every ordered level pair against the reference path walk."""

    @pytest.mark.parametrize("node", ["tsmc22", "tsmc7"])
    @pytest.mark.parametrize("source,destination",
                             list(itertools.permutations(LEVELS, 2)))
    def test_transfer_matches_the_path_walk(self, node, source, destination):
        hierarchy = MemoryHierarchy(energy_model=EnergyModel(technology=get_node(node)))
        for num_bytes, coalesced in itertools.product(
                (0, 1, 4096, 3 * 2**20 + 7, 1.5e6), (True, False)):
            result = hierarchy.transfer(
                TransferRequest(num_bytes, source, destination, coalesced))
            got = (result.cycles, list(result.energy.dynamic_joules.items()),
                   list(result.energy.leakage_joules.items()))
            assert got == walked(hierarchy, num_bytes, source, destination, coalesced)
            assert type(result.cycles) is float

    @pytest.mark.parametrize("method,source,destination,coalesced", [
        ("hbm_to_cmem", "hbm", "cmem", True),
        ("cmem_to_vmem", "cmem", "vmem", True),
        ("hbm_to_vmem", "hbm", "vmem", True),
        ("vmem_to_cmem", "vmem", "cmem", True),
    ])
    def test_named_transfers_match_the_path_walk(self, hierarchy, method, source,
                                                 destination, coalesced):
        for num_bytes in (0, 512, 7 * 2**20 + 3):
            result = getattr(hierarchy, method)(num_bytes)
            got = (result.cycles, list(result.energy.dynamic_joules.items()),
                   list(result.energy.leakage_joules.items()))
            assert got == walked(hierarchy, num_bytes, source, destination, coalesced)

    @pytest.mark.parametrize("method", ["hbm_to_cmem", "hbm_to_vmem"])
    def test_strided_named_transfers_match_the_path_walk(self, hierarchy, method):
        result = getattr(hierarchy, method)(2**20, coalesced=False)
        destination = method.rsplit("_", 1)[1]
        assert (result.cycles, list(result.energy.dynamic_joules.items())) == \
            walked(hierarchy, 2**20, "hbm", destination, False)[:2]

    def test_each_transfer_returns_its_own_budget(self, hierarchy):
        first = hierarchy.cmem_to_vmem(1024)
        second = hierarchy.cmem_to_vmem(1024)
        assert first.energy is not second.energy
        first.energy.add_dynamic("vmem", 1.0)
        assert second.energy.component_total("vmem") == \
            hierarchy.cmem_to_vmem(1024).energy.component_total("vmem")


class TestNegativeBytes:
    """Negative byte counts raise the messages they always have."""

    @pytest.mark.parametrize("call", [
        lambda h: h.hbm_to_cmem(-1),
        lambda h: h.cmem_to_vmem(-1),
        lambda h: h.hbm_to_vmem(-1),
        lambda h: h.vmem_to_cmem(-1),
        lambda h: h.hbm_to_vmem(-0.5, coalesced=False),
        lambda h: h.transfer(TransferRequest(-1, "vmem", "compute")),
    ])
    def test_transfers(self, hierarchy, call):
        with pytest.raises(ValueError, match="^num_bytes must be non-negative$"):
            call(hierarchy)

    def test_components(self, hierarchy):
        for call in (lambda: hierarchy.main_memory.transfer_cycles(-1),
                     lambda: hierarchy.oci.transfer_cycles(-1),
                     lambda: hierarchy.cmem.read_cycles(-1),
                     lambda: hierarchy.vmem.write_cycles(-1)):
            with pytest.raises(ValueError, match="^num_bytes must be non-negative$"):
                call()
