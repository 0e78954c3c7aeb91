"""Golden step prices: the cost model's floats, bit for bit.

``tests/golden/step_prices.json`` holds the ``repr`` of every float the
analytical cost model hands the layers above it:

* the three :class:`~repro.serving.costs.StepCost` floats of llama2-7b
  prefill and decode states on the four predefined designs, in int8 and
  bf16, priced cold through :class:`~repro.serving.costs.StepCostModel`;
* one DiT block and one MoE layer through
  :meth:`~repro.core.simulator.InferenceSimulator.run_graph`: the graph
  totals and each operator's cycles, bound, utilisation and energy
  components, in insertion order;
* :meth:`~repro.mapping.engine.MappingEngine.evaluate_all` of a
  K-partitioned GEMV (the cross-MXU reduction path) and of a packed CIM
  attention matmul: every candidate's cycles and energy components.

A ``repr`` round-trips a float exactly, so any change to the order of a
float sum, or to which terms enter it, shows here even when the
percentiles and rounded reports above it do not move.

Python 3.12 made ``sum()`` of floats compensated, so the file stores one
set per summation behaviour.  Regenerate it only for an intentional
change of the model's numbers, under both interpreters (see
CONTRIBUTING.md)::

    PYTHONPATH=src python3.11 tests/golden/regenerate.py step-prices
    PYTHONPATH=src python3.12 tests/golden/regenerate.py step-prices

The module imports no pytest, so the regenerate script, and
:func:`check` under an interpreter without pytest, can reuse it.
"""

from __future__ import annotations

import json
import pathlib

from repro.common import Precision
from repro.core.designs import PREDEFINED_DESIGNS
from repro.core.results import GraphResult, OperatorResult
from repro.core.simulator import InferenceSimulator
from repro.hw.energy import EnergyBudget
from repro.serving.costs import STEP_PRICES, StepCostModel
from repro.workloads.dit import DIT_XL_2, build_dit_block
from repro.workloads.llm import LLAMA2_7B
from repro.workloads.moe import MIXTRAL_8X7B
from repro.workloads.operators import LayerCategory, MatMulOp, OperandSource

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "step_prices.json"

DESIGNS = ("baseline", "cim-default", "design-a", "design-b")
PRECISIONS = (Precision.INT8, Precision.BF16)
#: (phase, batch, tokens) step states; the tokens are whole 256-token
#: buckets, so each state is priced exactly as written.
STATES = (("prefill", 1, 256), ("prefill", 4, 1024), ("prefill", 2, 2048),
          ("decode", 1, 256), ("decode", 16, 1280), ("decode", 48, 2048))

#: A llama2-7b FFN2 GEMV: K dwarfs M, so the mapspace keeps a
#: K-partitioned candidate that pays the cross-MXU reduction.
REDUCTION_GEMV = MatMulOp(name="ffn2_gemv", category=LayerCategory.FFN2,
                          m=1, k=11008, n=4096)
#: Decode attention scores of 64 heads: each instance fits one grid row
#: and two grid columns of a CIM-MXU, so instances pack onto the grid.
PACKED_ATTENTION = MatMulOp(name="qk_t", category=LayerCategory.ATTENTION,
                            precision=Precision.BF16, m=1, k=128, n=512,
                            batch=64, stationary_weights=False,
                            weight_source=OperandSource.CMEM,
                            activation_source=OperandSource.CMEM)


def summation() -> str:
    """Which float ``sum()`` the running interpreter has."""
    return "compensated" if sum([0.1] * 10) == 1.0 else "naive"


def _energy(budget: EnergyBudget) -> dict[str, list[list[str]]]:
    return {"dynamic": [[name, repr(joules)]
                        for name, joules in budget.dynamic_joules.items()],
            "leakage": [[name, repr(joules)]
                        for name, joules in budget.leakage_joules.items()]}


def _operator(result: OperatorResult) -> dict:
    return {"name": result.name, "unit": result.unit, "bound": result.bound,
            "cycles": repr(result.cycles), "seconds": repr(result.seconds),
            "utilization": repr(result.utilization),
            "mxu_busy_cycles": repr(result.mxu_busy_cycles),
            "energy": _energy(result.energy)}


def _graph(result: GraphResult) -> dict:
    return {"total_seconds": repr(result.total_seconds),
            "mxu_energy": repr(result.mxu_energy),
            "total_energy": repr(result.total_energy.total),
            "operators": [_operator(op) for op in result.operator_results]}


def step_prices() -> dict[str, list[str]]:
    """``design/precision/phase/batch/tokens`` -> the three StepCost reprs."""
    STEP_PRICES.clear()  # price every state cold, never read one back
    prices = {}
    for design in DESIGNS:
        simulator = InferenceSimulator(PREDEFINED_DESIGNS[design])
        for precision in PRECISIONS:
            costs = StepCostModel(LLAMA2_7B, simulator, precision)
            for phase, batch, tokens in STATES:
                price = (costs.prefill_cost if phase == "prefill"
                         else costs.decode_cost)
                cost = price(batch, tokens)
                prices[f"{design}/{precision.value}/{phase}/{batch}/{tokens}"] = [
                    repr(cost.seconds), repr(cost.mxu_energy_joules),
                    repr(cost.total_energy_joules)]
    return prices


def graphs() -> dict[str, dict]:
    """A DiT block and an MoE layer, operator by operator."""
    dit = InferenceSimulator(PREDEFINED_DESIGNS["design-a"]).run_graph(
        build_dit_block(DIT_XL_2, batch=2, image_resolution=256))
    moe = InferenceSimulator(PREDEFINED_DESIGNS["cim-default"]).run_graph(
        MIXTRAL_8X7B.build_layer("decode", 8, 1024, kv_len=1024,
                                 precision=Precision.BF16))
    return {"design-a/int8/dit-xl-2-block": _graph(dit),
            "cim-default/bf16/mixtral-8x7b-decode": _graph(moe)}


def mappings() -> dict[str, list[dict]]:
    """Every mapping candidate of the reduction and packed matmuls."""
    found = {}
    for design, op in (("design-b", REDUCTION_GEMV),
                       ("cim-default", PACKED_ATTENTION)):
        engine = InferenceSimulator(PREDEFINED_DESIGNS[design]).model.engine
        found[f"{design}/{op.precision.value}/{op.name}"] = [
            {"partition": mapping.candidate.partition.value,
             "mxu_count": mapping.candidate.mxu_count,
             "instances_per_mxu": mapping.candidate.instances_per_mxu,
             "tile": [mapping.tiling.tile.m, mapping.tiling.tile.k,
                      mapping.tiling.tile.n],
             "bound": mapping.bound,
             "compute_cycles": repr(mapping.compute_cycles),
             "weight_transfer_cycles": repr(mapping.weight_transfer_cycles),
             "activation_transfer_cycles": repr(mapping.activation_transfer_cycles),
             "reduction_cycles": repr(mapping.reduction_cycles),
             "total_cycles": repr(mapping.total_cycles),
             "utilization": repr(mapping.utilization),
             "energy": _energy(mapping.energy)}
            for mapping in engine.evaluate_all(op)]
    return found


def snapshot() -> dict[str, dict]:
    """This interpreter's golden set."""
    return {"step_prices": step_prices(), "graphs": graphs(),
            "mappings": mappings()}


def _golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["sets"]


def check() -> None:
    """Compare the live model with this interpreter's golden set."""
    expected = _golden()[summation()]
    actual = snapshot()
    for section, cases in expected.items():
        assert sorted(actual[section]) == sorted(cases), section
        moved = [name for name in cases if actual[section][name] != cases[name]]
        assert not moved, (f"{len(moved)} of {len(cases)} {section} moved: "
                           f"{moved}")


def test_step_prices_match_golden():
    check()


def test_golden_holds_both_summation_sets():
    sets = _golden()
    assert sorted(sets) == ["compensated", "naive"]
    for found in sets.values():
        assert sorted(found["step_prices"]) == sorted(
            f"{design}/{precision.value}/{phase}/{batch}/{tokens}"
            for design in DESIGNS for precision in PRECISIONS
            for phase, batch, tokens in STATES)
        assert len(found["graphs"]) == 2
        assert [m["partition"] for m in found["mappings"][
            "design-b/int8/ffn2_gemv"]].count("k") == 1


if __name__ == "__main__":
    check()
    print(f"step prices match the golden ({summation()} summation)")
