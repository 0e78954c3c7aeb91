"""Tests for the content-fingerprint layer of the sweep engine.

The cache keys must be pure functions of value content: identical across
object identities, across repeated runs, and — critically for the
multiprocessing fan-out — across Python processes with different hash seeds.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.common import Precision
from repro.core.designs import cim_tpu_default, design_a, tpuv4i_baseline
from repro.core.simulator import LLMInferenceSettings
from repro.serving.cluster import cluster_run_key
from repro.serving.faults import parse_fault
from repro.serving.metrics import SLO
from repro.serving.simulator import serving_run_key
from repro.serving.spec import ServingSpec
from repro.serving.trace import parse_overlay
from repro.sweep.engine import point_key
from repro.sweep.fingerprint import canonicalize, fingerprint
from repro.sweep.grid import SweepPoint, make_point
from repro.workloads.llm import GPT3_30B, LLAMA2_7B, build_llm_layer

#: A serving point, and another valid value for each input a key reads
#: (the design label has its own test below).
POINT = SweepPoint("baseline", tpuv4i_baseline(), GPT3_30B, LLMInferenceSettings(
    batch=2, input_tokens=64, output_tokens=16), serving=ServingSpec(replicas=2))
OTHER = dict(
    parallelism="tensor", config=design_a(),
    model=LLAMA2_7B, settings=dataclasses.replace(POINT.settings, batch=4),
    scheduler="decode-priority", trace="bursty", arrival_rate=9.0,
    num_requests=201, seed=1, max_batch=31, bucket_tokens=255, devices=2,
    memory_utilisation=0.8, slo=SLO(ttft_s=2.0, tpot_s=0.1), replicas=3,
    router="least-kv-pressure", autoscaler="queue-depth", min_replicas=2,
    faults=(parse_fault("replica-crash:mttf_s=60,duration_s=5"),),
    overlay=parse_overlay("flash-crowd:start_s=1,duration_s=2,magnitude=2"),
    fidelity="fluid")
SPEC_FIELDS = [field.name for field in dataclasses.fields(ServingSpec)]
KEYS = {"point_key": point_key,
        "serving_run_key": lambda p: serving_run_key(p.model, p.config,
                                                     p.serving, p.settings),
        "cluster_run_key": lambda p: cluster_run_key(p.model, p.config,
                                                     p.serving, p.settings)}

#: A snippet that recomputes reference fingerprints in a fresh interpreter.
_SUBPROCESS_SNIPPET = """
from repro.core.designs import tpuv4i_baseline
from repro.core.simulator import LLMInferenceSettings
from repro.sweep.engine import point_key
from repro.sweep.fingerprint import fingerprint
from repro.sweep.grid import make_point
from repro.workloads.llm import GPT3_30B, build_llm_layer

graph = build_llm_layer(GPT3_30B, "prefill", 2, 64)
print(fingerprint(tpuv4i_baseline(), graph))
print(point_key(make_point("baseline", tpuv4i_baseline(), GPT3_30B, batch=2,
                           input_tokens=64, output_tokens=16)))
"""


def _reference_keys() -> tuple[str, str]:
    graph = build_llm_layer(GPT3_30B, "prefill", 2, 64)
    graph_fp = fingerprint(tpuv4i_baseline(), graph)
    key = point_key(make_point("baseline", tpuv4i_baseline(), GPT3_30B, batch=2,
                               input_tokens=64, output_tokens=16))
    return graph_fp, key


class TestCanonicalize:
    def test_primitives_pass_through(self):
        assert canonicalize(3) == 3
        assert canonicalize("x") == "x"
        assert canonicalize(None) is None
        assert canonicalize(True) is True

    def test_floats_use_exact_repr(self):
        assert canonicalize(0.1) == ["float", "0.1"]

    def test_enum_and_dataclass_forms(self):
        assert canonicalize(Precision.INT8) == ["enum", "Precision", "int8"]
        form = canonicalize(LLMInferenceSettings(batch=2, input_tokens=8, output_tokens=4))
        assert form[0] == "dataclass" and form[1] == "LLMInferenceSettings"

    def test_dict_keys_are_order_insensitive(self):
        assert canonicalize({"b": 1, "a": 2}) == canonicalize({"a": 2, "b": 1})

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            canonicalize(object())


class TestFingerprint:
    def test_equal_content_equal_key(self):
        assert fingerprint(tpuv4i_baseline()) == fingerprint(tpuv4i_baseline())
        graph_a = build_llm_layer(GPT3_30B, "prefill", 2, 64)
        graph_b = build_llm_layer(GPT3_30B, "prefill", 2, 64)
        assert fingerprint(graph_a) == fingerprint(graph_b)

    def test_different_configs_differ(self):
        keys = {fingerprint(config) for config in
                (tpuv4i_baseline(), cim_tpu_default(), design_a())}
        assert len(keys) == 3

    def test_different_graphs_differ(self):
        prefill = build_llm_layer(GPT3_30B, "prefill", 2, 64)
        decode = build_llm_layer(GPT3_30B, "decode", 2, 64)
        assert fingerprint(prefill) != fingerprint(decode)

    def test_argument_packing_matters(self):
        assert fingerprint(1, 2) != fingerprint((1, 2))

    def test_point_key_covers_design_label(self):
        base = make_point("baseline", tpuv4i_baseline(), GPT3_30B, batch=2,
                          input_tokens=64, output_tokens=16)
        renamed = make_point("other-label", tpuv4i_baseline(), GPT3_30B, batch=2,
                             input_tokens=64, output_tokens=16)
        assert point_key(base) != point_key(renamed)

    @pytest.mark.parametrize("key, change", [
        ("point_key", "parallelism"), *[(key, change) for key in KEYS
          for change in ("config", "model", "settings", *SPEC_FIELDS)]])
    def test_every_key_input_moves_the_key(self, key, change):
        """A key that lost an input stays wrong under any version bump."""
        changed = (dataclasses.replace(POINT, serving=dataclasses.replace(
                       POINT.serving, **{change: OTHER[change]}))
                   if change in SPEC_FIELDS
                   else dataclasses.replace(POINT, **{change: OTHER[change]}))
        assert KEYS[key](POINT) != KEYS[key](changed)

    def test_determinism_across_processes(self):
        """Keys survive process boundaries and hash-seed randomisation."""
        graph_fp, key = _reference_keys()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        for seed in ("0", "424242"):
            env["PYTHONHASHSEED"] = seed
            output = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SNIPPET], env=env,
                capture_output=True, text=True, check=True).stdout.split()
            assert output == [graph_fp, key]
