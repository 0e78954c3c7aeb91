"""Fixture tests for repro-lint: engine mechanics plus one suite per rule.

Each rule is exercised on small synthetic projects built from in-memory
overlays (no filesystem), with exact ``file:line`` locations asserted,
plus two planted-violation suites against the *real* repository tree:
RPR001 must fail loudly on a planted wall-clock read, and RPR002 must
flag a synthetic merge-base diff that edits a fingerprinted dataclass
without bumping its version string.  The final suite pins the acceptance
gate: the repository at HEAD lints clean.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    META_RULE,
    RULE_REGISTRY,
    Finding,
    Project,
    Rule,
    get_rule,
    lint_repository,
    register_rule,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(files, rule_id=None, base=None, diff_base=None, targets=None):
    """Lint an in-memory project; returns the findings list."""
    base_reader = (lambda rel: base.get(rel)) if base is not None else None
    project = Project(root=None, overlay=files, diff_base=diff_base,
                      base_reader=base_reader)
    rules = [RULE_REGISTRY[rule_id]] if rule_id else None
    if targets is None:
        targets = [rel for rel in files if rel.startswith("src/")]
    return run_lint(project, targets, rules=rules)


def src(text):
    return textwrap.dedent(text).lstrip("\n")


class TestEngine:
    def test_findings_carry_exact_locations_and_render(self):
        files = {"src/repro/x.py": src("""
            import time


            def stamp():
                return time.time()
        """)}
        findings = lint(files, "RPR001")
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.path, finding.line) == ("src/repro/x.py", 5)
        assert finding.rule == "RPR001"
        assert finding.render().startswith("src/repro/x.py:5:")
        assert "RPR001" in finding.render()
        payload = finding.to_dict()
        assert payload["line"] == 5 and payload["rule"] == "RPR001"

    def test_line_pragma_suppresses_the_finding(self):
        files = {"src/repro/x.py": src("""
            import time

            NOW = time.time()  # repro-lint: disable=RPR001 (fixture)
        """)}
        assert lint(files, "RPR001") == []

    def test_file_pragma_suppresses_every_finding_of_the_rule(self):
        files = {"src/repro/x.py": src("""
            # repro-lint: disable-file=RPR001 (fixture)
            import time

            A = time.time()
            B = time.time()
        """)}
        assert lint(files, "RPR001") == []

    def test_unused_pragma_is_a_finding(self):
        files = {"src/repro/x.py": src("""
            VALUE = 1  # repro-lint: disable=RPR001
        """)}
        findings = lint(files, "RPR001")
        assert [f.rule for f in findings] == [META_RULE]
        assert findings[0].line == 1
        assert "suppresses nothing" in findings[0].message

    def test_pragma_syntax_inside_a_docstring_is_not_a_pragma(self):
        files = {"src/repro/x.py": src("""
            '''Docs mention ``# repro-lint: disable=RPR001`` as syntax.'''
            VALUE = 1
        """)}
        assert lint(files, "RPR001") == []

    def test_unparsable_file_is_a_meta_finding(self):
        files = {"src/repro/x.py": "def broken(:\n"}
        findings = lint(files, "RPR001")
        assert [f.rule for f in findings] == [META_RULE]
        assert "could not parse" in findings[0].message

    def test_findings_sort_by_location(self):
        files = {
            "src/repro/b.py": "import time\nA = time.time()\n",
            "src/repro/a.py": "import time\nA = time.time()\nB = time.time()\n",
        }
        findings = lint(files, "RPR001")
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/a.py", 2), ("src/repro/a.py", 3),
            ("src/repro/b.py", 2)]

    def test_unknown_rule_lists_registered_ids(self):
        with pytest.raises(KeyError, match="RPR001"):
            get_rule("RPR999")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_rule(RULE_REGISTRY["RPR001"])

    def test_rule_requires_a_check(self):
        with pytest.raises(ValueError, match="no check"):
            Rule(id="ZZZ1", name="empty", description="nothing")


class TestDeterminismRule:
    def test_wall_clock_calls_flagged(self):
        files = {"src/repro/x.py": src("""
            import time
            import datetime

            A = time.time()
            B = time.perf_counter()
            C = datetime.datetime.now()
        """)}
        findings = lint(files, "RPR001")
        assert [(f.line, f.rule) for f in findings] == [
            (4, "RPR001"), (5, "RPR001"), (6, "RPR001")]

    def test_time_function_imports_flagged(self):
        files = {"src/repro/x.py": "from time import perf_counter\n"}
        findings = lint(files, "RPR001")
        assert len(findings) == 1 and findings[0].line == 1
        assert "perf_counter" in findings[0].message

    def test_obs_package_may_read_the_wall(self):
        files = {"src/repro/obs/x.py": src("""
            import time

            EPOCH = time.perf_counter()
        """)}
        assert lint(files, "RPR001") == []

    def test_files_outside_src_repro_may_read_the_wall(self):
        files = {"benchmarks/bench_x.py": "import time\nT = time.time()\n"}
        assert lint(files, "RPR001", targets=["benchmarks/bench_x.py"]) == []

    def test_global_rng_flagged_even_outside_src_repro(self):
        files = {"benchmarks/bench_x.py": "import random\nX = random.random()\n"}
        findings = lint(files, "RPR001", targets=["benchmarks/bench_x.py"])
        assert len(findings) == 1 and "global" in findings[0].message

    def test_unseeded_random_flagged_seeded_allowed(self):
        files = {"src/repro/x.py": src("""
            import random

            BAD = random.Random()
            GOOD = random.Random(7)
            ALSO_GOOD = random.Random("fault/crash/3")
        """)}
        findings = lint(files, "RPR001")
        assert [(f.line,) for f in findings] == [(3,)]
        assert "unseeded" in findings[0].message

    def test_module_level_rng_functions_flagged(self):
        files = {"src/repro/x.py": src("""
            import random
            from random import randint

            X = random.choice([1, 2])
        """)}
        findings = lint(files, "RPR001")
        assert [f.line for f in findings] == [2, 4]

    def test_wall_clock_default_factory_flagged(self):
        files = {"src/repro/x.py": src("""
            import time
            from dataclasses import dataclass, field


            @dataclass
            class Job:
                submitted: float = field(default_factory=time.time)
        """)}
        findings = lint(files, "RPR001")
        assert len(findings) == 1 and findings[0].line == 7
        assert "default_factory" in findings[0].message


MINI_GRID = src("""
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class SweepPoint:
        design: str
        devices: int = 1
""")
MINI_ENGINE = src("""
    def point_key(point):
        return fingerprint("sweep-point/v6", point.design, point.devices)
""")


class TestFingerprintRule:
    def _project(self, head_grid, head_engine=MINI_ENGINE,
                 base_grid=MINI_GRID, base_engine=MINI_ENGINE):
        files = {"src/repro/sweep/grid.py": head_grid,
                 "src/repro/sweep/engine.py": head_engine}
        base = {"src/repro/sweep/grid.py": base_grid,
                "src/repro/sweep/engine.py": base_engine}
        return lint(files, "RPR002", base=base, diff_base="synthetic")

    def test_field_change_without_bump_flagged_at_version_line(self):
        head = MINI_GRID.replace("devices: int = 1",
                                 "devices: int = 1\n    fidelity: str = 'exact'")
        findings = self._project(head)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "src/repro/sweep/engine.py"
        assert finding.line == 2  # the sweep-point/v6 literal's line
        assert "sweep-point" in finding.message
        assert "SweepPoint" in finding.message

    def test_field_change_with_bump_is_clean(self):
        head = MINI_GRID.replace("devices: int = 1",
                                 "devices: int = 1\n    fidelity: str = 'exact'")
        bumped = MINI_ENGINE.replace("sweep-point/v6", "sweep-point/v7")
        assert self._project(head, head_engine=bumped) == []

    def test_key_function_change_without_bump_flagged(self):
        head_engine = MINI_ENGINE.replace("point.design, point.devices",
                                          "point.design")
        findings = self._project(MINI_GRID, head_engine=head_engine)
        assert len(findings) == 1
        assert "point_key" in findings[0].message

    def test_docstring_and_comment_edits_do_not_demand_a_bump(self):
        head_engine = src("""
            def point_key(point):
                \"\"\"Newly documented.\"\"\"
                # a new comment
                return fingerprint("sweep-point/v6", point.design, point.devices)
        """)
        base_engine = src("""
            def point_key(point):
                return fingerprint("sweep-point/v6", point.design, point.devices)
        """)
        assert self._project(MINI_GRID, head_engine=head_engine,
                             base_engine=base_engine) == []

    def test_rule_is_inert_without_a_diff_base(self):
        head = MINI_GRID.replace("devices: int = 1", "devices: int = 2")
        files = {"src/repro/sweep/grid.py": head,
                 "src/repro/sweep/engine.py": MINI_ENGINE}
        assert lint(files, "RPR002") == []

    def test_api_schema_tolerates_appended_defaulted_fields(self):
        base_requests = src("""
            SCHEMA_VERSION = 1


            class SimulateRequest:
                rate: float
        """)
        head_requests = base_requests.replace(
            "    rate: float", "    rate: float\n    shards: int = 0")
        files = {"src/repro/api/requests.py": head_requests}
        base = {"src/repro/api/requests.py": base_requests}
        assert lint(files, "RPR002", base=base, diff_base="synthetic") == []

    def test_api_schema_flags_changed_existing_field(self):
        base_requests = src("""
            SCHEMA_VERSION = 1


            class SimulateRequest:
                rate: float
        """)
        head_requests = base_requests.replace("    rate: float",
                                              "    rate: int")
        files = {"src/repro/api/requests.py": head_requests}
        base = {"src/repro/api/requests.py": base_requests}
        findings = lint(files, "RPR002", base=base, diff_base="synthetic")
        assert len(findings) == 1
        assert "api-schema" in findings[0].message


class TestFrozenDataclassRule:
    def test_unfrozen_dataclass_in_contract_module_flagged(self):
        files = {"src/repro/api/payloads.py": src("""
            from dataclasses import dataclass


            @dataclass
            class Envelope:
                kind: str
        """)}
        findings = lint(files, "RPR003")
        assert len(findings) == 1 and findings[0].line == 5
        assert "Envelope" in findings[0].message

    def test_frozen_dataclass_in_contract_module_is_clean(self):
        files = {"src/repro/serving/metrics.py": src("""
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class Report:
                p99_s: float
        """)}
        assert lint(files, "RPR003") == []

    def test_mutable_state_dataclass_outside_contract_modules_allowed(self):
        files = {"src/repro/serving/simulator.py": src("""
            from dataclasses import dataclass


            @dataclass
            class _RunState:
                clock_s: float = 0.0
        """)}
        assert lint(files, "RPR003") == []

    def test_mutable_default_flagged_everywhere(self):
        files = {"src/repro/core/results.py": src("""
            from dataclasses import dataclass, field


            @dataclass
            class Accumulator:
                rows: list = field(default=[])
        """)}
        findings = lint(files, "RPR003")
        assert len(findings) == 1 and findings[0].line == 6
        assert "mutable default" in findings[0].message

    def test_default_factory_is_the_blessed_spelling(self):
        files = {"src/repro/core/results.py": src("""
            from dataclasses import dataclass, field


            @dataclass
            class Accumulator:
                rows: list = field(default_factory=list)
        """)}
        assert lint(files, "RPR003") == []


ROUTER_MODULE = src("""
    ROUTER_REGISTRY = {}


    def register_router(policy, overwrite=False):
        ROUTER_REGISTRY[policy.name] = policy


    class RouterPolicy:
        def __init__(self, name):
            self.name = name


    register_router(RouterPolicy(name="zigzag"))
""")
CLI_WITH_REGISTRY = 'from x import ROUTER_REGISTRY\nCHOICES = sorted(ROUTER_REGISTRY)\n'


class TestRegistrySyncRule:
    def test_registered_name_without_test_reference_flagged(self):
        files = {"src/repro/serving/router.py": ROUTER_MODULE,
                 "src/repro/cli.py": CLI_WITH_REGISTRY,
                 "tests/test_router.py": "def test_nothing():\n    pass\n"}
        findings = lint(files, "RPR004")
        assert len(findings) == 1
        assert findings[0].path == "src/repro/serving/router.py"
        assert findings[0].line == 13
        assert "'zigzag'" in findings[0].message

    def test_tested_and_cli_wired_registration_is_clean(self):
        files = {"src/repro/serving/router.py": ROUTER_MODULE,
                 "src/repro/cli.py": CLI_WITH_REGISTRY,
                 "tests/test_router.py": 'NAME = "zigzag"\n'}
        assert lint(files, "RPR004") == []

    def test_registry_unreachable_from_cli_flagged(self):
        files = {"src/repro/serving/router.py": ROUTER_MODULE,
                 "src/repro/cli.py": "CHOICES = []\n",
                 "tests/test_router.py": 'NAME = "zigzag"\n'}
        findings = lint(files, "RPR004")
        assert len(findings) == 1
        assert "ROUTER_REGISTRY" in findings[0].message
        assert "unreachable" in findings[0].message

    def test_helper_default_name_resolves(self):
        module = src("""
            def register_autoscaler(policy):
                pass


            def fixed_autoscaler(name="fixed"):
                return name


            register_autoscaler(fixed_autoscaler())
        """)
        files = {"src/repro/serving/autoscaler.py": module,
                 "src/repro/cli.py": "import x\nAUTOSCALER_REGISTRY\n",
                 "tests/test_a.py": 'NAME = "fixed"\n'}
        assert lint(files, "RPR004") == []

    def test_helper_first_argument_name_resolves(self):
        module = src("""
            def register_fault(model):
                pass


            register_fault(_effect_model("replica-crash", "crash"))
        """)
        files = {"src/repro/serving/faults.py": module,
                 "src/repro/cli.py": "FAULT_REGISTRY\n",
                 "tests/test_f.py": 'NAME = "replica-crash"\n'}
        assert lint(files, "RPR004") == []

    def test_module_constant_name_resolves_across_files(self):
        files = {
            "src/repro/workloads/llm.py":
                'LLM_SCENARIO = ScenarioSpec(name="llm-serving")\n',
            "src/repro/workloads/registry.py": src("""
                def register_scenario(spec):
                    pass


                register_scenario(LLM_SCENARIO)
            """),
            "src/repro/cli.py": "SCENARIO_REGISTRY\n",
            "tests/test_s.py": 'NAME = "llm-serving"\n',
        }
        assert lint(files, "RPR004") == []

    def test_statically_unresolvable_name_flagged(self):
        module = src("""
            def register_search(strategy):
                pass


            register_search(make_strategy())
        """)
        files = {"src/repro/optimize/search.py": module,
                 "src/repro/cli.py": "SEARCH_REGISTRY\n",
                 "tests/test_s.py": "pass\n"}
        findings = lint(files, "RPR004")
        assert len(findings) == 1
        assert "cannot statically resolve" in findings[0].message


ERRORS_MODULE = src("""
    ERROR_CODES = (
        "invalid-field",
        "engine-error",
    )
""")


class TestErrorContractRule:
    def test_unknown_literal_code_flagged(self):
        files = {"src/repro/api/errors.py": ERRORS_MODULE,
                 "src/repro/api/facade.py": src("""
                     def fail():
                         raise ApiRequestError(ApiError(
                             code="not-a-code", message="boom"))
                 """)}
        findings = lint(files, "RPR005")
        assert len(findings) == 1
        assert findings[0].path == "src/repro/api/facade.py"
        assert findings[0].line == 2
        assert "'not-a-code'" in findings[0].message

    def test_declared_code_and_non_literal_code_are_clean(self):
        files = {"src/repro/api/errors.py": ERRORS_MODULE,
                 "src/repro/api/facade.py": src("""
                     def ok(code):
                         ApiError(code="engine-error", message="m")
                         ApiError(code=code, message="m")
                 """)}
        assert lint(files, "RPR005") == []

    def test_positional_code_checked_too(self):
        files = {"src/repro/api/errors.py": ERRORS_MODULE,
                 "src/repro/api/x.py": 'E = ApiError("typo-code", "m")\n'}
        findings = lint(files, "RPR005")
        assert len(findings) == 1 and "'typo-code'" in findings[0].message

    def test_gateway_status_map_keys_must_be_declared(self):
        files = {"src/repro/api/errors.py": ERRORS_MODULE,
                 "src/repro/gateway/server.py": src("""
                     _ERROR_STATUS = {
                         "engine-error": 422,
                         "job-exploded": 500,
                     }
                 """)}
        findings = lint(files, "RPR005")
        assert len(findings) == 1
        assert findings[0].line == 3
        assert "'job-exploded'" in findings[0].message


class TestTelemetryRule:
    def test_record_construction_outside_defer_translator_flagged(self):
        files = {"src/repro/serving/simulator.py": src("""
            def run(tel, track, start, end):
                tel.spans.append(Span(track, "step", start, end))
        """)}
        findings = lint(files, "RPR006")
        assert len(findings) == 1 and findings[0].line == 2
        assert "defer translator" in findings[0].message

    def test_record_construction_inside_defer_translator_is_clean(self):
        files = {"src/repro/serving/simulator.py": src("""
            def install(tel, track, rows):
                def materialize(spans, events, gauges):
                    for start, end in rows:
                        spans.append(Span(track, "step", start, end))
                tel.defer(materialize)
        """)}
        assert lint(files, "RPR006") == []

    def test_unguarded_emission_on_nullable_telemetry_flagged(self):
        files = {"src/repro/sweep/engine.py": src("""
            def sweep(telemetry):
                telemetry.count("sweep.points")
        """)}
        findings = lint(files, "RPR006")
        assert len(findings) == 1 and findings[0].line == 2
        assert "branch-free no-op" in findings[0].message

    def test_enclosing_if_guard_is_clean(self):
        files = {"src/repro/sweep/engine.py": src("""
            def sweep(self):
                if self.telemetry is not None:
                    self.telemetry.count("sweep.points")
        """)}
        assert lint(files, "RPR006") == []

    def test_early_return_guard_is_clean(self):
        files = {"src/repro/serving/simulator.py": src("""
            def summarise(telemetry, report):
                if telemetry is None or not telemetry.enabled:
                    return
                telemetry.span("serve", "run", 0.0, report.makespan_s)
        """)}
        assert lint(files, "RPR006") == []

    def test_narrowed_tel_local_is_trusted(self):
        files = {"src/repro/serving/cluster.py": src("""
            def route(telemetry):
                tel = telemetry if telemetry is not None and telemetry.enabled else None
                tel.count("cluster.routed")
        """)}
        assert lint(files, "RPR006") == []


class TestPlantedViolationsOnTheRealTree:
    """RPR001 and RPR002 must fail loudly against the actual repository."""

    def test_planted_wall_clock_read_fails_rpr001(self):
        planted = "src/repro/serving/_planted_fixture.py"
        project = Project(REPO_ROOT, overlay={
            planted: "import time\n\nSTAMP = time.time()\n"})
        findings = run_lint(project, [planted],
                            rules=[RULE_REGISTRY["RPR001"]])
        assert [(f.path, f.line, f.rule) for f in findings] == [
            (planted, 3, "RPR001")]

    def test_synthetic_unbumped_fingerprint_diff_fails_rpr002(self):
        grid = "src/repro/sweep/grid.py"
        head_text = (REPO_ROOT / grid).read_text(encoding="utf-8")
        base_text = head_text.replace('    parallelism: str = "pipeline"\n', "")
        assert base_text != head_text, "fixture relies on the SweepPoint field"

        def base_reader(rel):
            if rel == grid:
                return base_text
            path = REPO_ROOT / rel
            return path.read_text(encoding="utf-8") if path.is_file() else None

        project = Project(REPO_ROOT, diff_base="synthetic",
                          base_reader=base_reader)
        findings = run_lint(project, ["src/repro/sweep/engine.py"],
                            rules=[RULE_REGISTRY["RPR002"]])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "RPR002"
        assert finding.path == "src/repro/sweep/engine.py"
        assert "sweep-point" in finding.message
        assert "SweepPoint" in finding.message

    def test_bumped_version_string_silences_rpr002(self):
        grid = "src/repro/sweep/grid.py"
        engine = "src/repro/sweep/engine.py"
        head_grid = (REPO_ROOT / grid).read_text(encoding="utf-8")
        base_grid = head_grid.replace('    parallelism: str = "pipeline"\n', "")
        head_engine = (REPO_ROOT / engine).read_text(encoding="utf-8")
        base_engine = head_engine.replace("sweep-point/v6", "sweep-point/v5")
        assert base_engine != head_engine

        def base_reader(rel):
            if rel == grid:
                return base_grid
            if rel == engine:
                return base_engine
            path = REPO_ROOT / rel
            return path.read_text(encoding="utf-8") if path.is_file() else None

        project = Project(REPO_ROOT, diff_base="synthetic",
                          base_reader=base_reader)
        findings = run_lint(project, [engine],
                            rules=[RULE_REGISTRY["RPR002"]])
        assert findings == []


class TestCliAndAcceptance:
    def test_repository_at_head_lints_clean(self):
        findings, warning = lint_repository(REPO_ROOT)
        assert warning is None
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_exits_zero_on_clean_tree(self, capsys):
        exit_code = main(["lint", "--root", str(REPO_ROOT)])
        assert exit_code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_exits_nonzero_with_findings_and_json(self, tmp_path, capsys):
        (tmp_path / "setup.py").write_text("")
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\nSTAMP = time.time()\n")
        out_json = tmp_path / "findings.json"
        exit_code = main(["lint", "--root", str(tmp_path),
                          str(bad), "--json", str(out_json)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "src/repro/bad.py:3:" in captured.out
        payload = json.loads(out_json.read_text())
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "RPR001"

    def test_cli_list_rules_names_every_rule(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        for rule_id in ("RPR000", "RPR001", "RPR002", "RPR003",
                        "RPR004", "RPR005", "RPR006"):
            assert rule_id in output

    def test_cli_warns_and_passes_on_unresolvable_diff_base(self, capsys):
        exit_code = main(["lint", "--root", str(REPO_ROOT),
                          "--diff-base", "no-such-ref-anywhere"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "does not resolve" in captured.err

    def test_cli_diff_base_against_head_is_clean(self):
        # Requires a real git checkout; skip when the history is absent.
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                               capture_output=True)
        if probe.returncode != 0:
            pytest.skip("not a git checkout")
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--root",
             str(REPO_ROOT), "--diff-base", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
