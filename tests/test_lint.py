"""Fixture tests for repro-lint: engine mechanics plus one suite per rule.

Each rule is exercised on small synthetic projects built from in-memory
overlays (no filesystem), with exact ``file:line`` locations asserted,
plus planted violations against the *real* repository tree: RPR001 must
fail loudly on a planted wall-clock read.  The fingerprint-version
contract, once rule RPR002, is checked at run time by
``test_fingerprint_versions.py``; its suites here drive that check on
small modules and on the real tree's snapshot.  The final suite pins the
acceptance gate: the repository at HEAD lints clean.
"""

import importlib.util
import itertools
import json
import sys
import textwrap
from pathlib import Path

import pytest
from test_fingerprint_versions import key_version, pin, snapshot, unbumped

from repro.cli import main
from repro.codec import encode
from repro.lint import (
    META_RULE,
    RULE_REGISTRY,
    Project,
    Rule,
    get_rule,
    lint_repository,
    register_rule,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(files, rule_id=None, targets=None):
    """Lint an in-memory project; returns the findings list."""
    project = Project(root=None, overlay=files)
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
        payload = encode(finding)
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

    def test_pragmas_of_rules_that_did_not_run_are_not_judged(self):
        files = {"src/repro/x.py": src("""
            # repro-lint: disable-file=RPR001 (fixture)
            VALUE = 1  # repro-lint: disable=RPR001 (fixture)
        """)}
        assert lint(files, "RPR005") == []

    def test_stale_pragma_of_a_rule_that_ran_is_still_flagged(self):
        files = {"src/repro/x.py": src("""
            # repro-lint: disable-file=RPR005 (fixture)
            VALUE = 1  # repro-lint: disable=RPR005 (fixture)
        """)}
        for rule_id in ("RPR005", None):
            findings = lint(files, rule_id)
            assert [(f.rule, f.line) for f in findings] == [
                (META_RULE, 1), (META_RULE, 2)]
            assert "'disable-file=RPR005' suppresses nothing" in findings[0].message
            assert "'disable=RPR005' suppresses nothing" in findings[1].message

    @pytest.mark.parametrize("rule_id", ["RPR001", "RPR005", None])
    def test_pragma_naming_an_unregistered_rule_is_flagged_whatever_runs(self, rule_id):
        files = {"src/repro/x.py": src("""
            # repro-lint: disable-file=RPR999 (fixture)
            VALUE = 1  # repro-lint: disable=RPR999 (fixture)
        """)}
        findings = lint(files, rule_id)
        assert [(f.rule, f.line) for f in findings] == [(META_RULE, 1), (META_RULE, 2)]
        assert all("RPR999' suppresses nothing" in f.message for f in findings)

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
MINI_REQUESTS = src("""
    from dataclasses import dataclass

    SCHEMA_VERSION = 1


    @dataclass(frozen=True)
    class SimulateRequest:
        rate: float
""")


def load(tmp_path, monkeypatch, name, text):
    """Import ``text`` as module ``name``, from a file inspect can read."""
    path = tmp_path / f"{name}.py"
    path.write_text(text, encoding="utf-8")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


class TestFingerprintRule:
    """RPR002's contract, now the run-time check of the fingerprint golden.

    Each case pins a base and a head module the way the golden records
    live ones, keyed by qualified name, and asks :func:`unbumped` whether
    the head changed a definition under the base's version.
    """

    @pytest.fixture
    def sweep_point(self, tmp_path, monkeypatch):
        tags = itertools.count()

        def pinned(grid=MINI_GRID, engine=MINI_ENGINE):
            tag = next(tags)
            point = load(tmp_path, monkeypatch, f"grid_{tag}", grid).SweepPoint
            key = load(tmp_path, monkeypatch, f"engine_{tag}", engine).point_key
            return {"sweep-point": {"version": key_version(key), "definitions": {
                "SweepPoint": pin(point), "point_key": pin(key)}}}
        return pinned

    @pytest.fixture
    def api_schema(self, tmp_path, monkeypatch):
        tags = itertools.count()

        def pinned(text=MINI_REQUESTS):
            module = load(tmp_path, monkeypatch, f"requests_{next(tags)}", text)
            return {"api-schema": {
                "version": f"SCHEMA_VERSION = {module.SCHEMA_VERSION}",
                "definitions": {"SimulateRequest": pin(module.SimulateRequest)}}}
        return pinned

    def test_field_change_without_bump_flagged_at_version_line(self, sweep_point):
        head = MINI_GRID.replace("devices: int = 1",
                                 "devices: int = 1\n    fidelity: str = 'exact'")
        problems = unbumped(sweep_point(), sweep_point(grid=head))
        assert len(problems) == 1
        # The message names the version literal to move.
        assert problems[0].startswith(
            "SweepPoint changed but sweep-point is still 'sweep-point/v6'")
        assert "bump it" in problems[0]

    def test_field_change_with_bump_is_clean(self, sweep_point):
        head = MINI_GRID.replace("devices: int = 1",
                                 "devices: int = 1\n    fidelity: str = 'exact'")
        bumped = MINI_ENGINE.replace("sweep-point/v6", "sweep-point/v7")
        recorded = sweep_point()
        live = sweep_point(grid=head, engine=bumped)
        assert unbumped(recorded, live) == []
        assert live != recorded  # the golden still asks to be regenerated

    def test_key_function_change_without_bump_flagged(self, sweep_point):
        head_engine = MINI_ENGINE.replace("point.design, point.devices",
                                          "point.design")
        problems = unbumped(sweep_point(), sweep_point(engine=head_engine))
        assert len(problems) == 1
        assert problems[0].startswith("point_key changed")

    def test_docstring_and_comment_edits_do_not_demand_a_bump(self, sweep_point):
        head_engine = src("""
            def point_key(point):
                \"\"\"Newly documented.\"\"\"
                # a new comment
                return fingerprint("sweep-point/v6", point.design, point.devices)
        """)
        recorded = sweep_point()
        assert unbumped(recorded, sweep_point(engine=head_engine)) == []
        assert sweep_point(engine=head_engine) == recorded

    def test_api_schema_tolerates_appended_defaulted_fields(self, api_schema):
        head = MINI_REQUESTS.replace("    rate: float",
                                     "    rate: float\n    shards: int = 0")
        recorded, live = api_schema(), api_schema(head)
        assert unbumped(recorded, live) == []
        assert live != recorded  # the golden still asks to be regenerated

    def test_api_schema_flags_changed_existing_field(self, api_schema):
        head = MINI_REQUESTS.replace("    rate: float", "    rate: int")
        problems = unbumped(api_schema(), api_schema(head))
        assert len(problems) == 1
        assert "api-schema is still 'SCHEMA_VERSION = 1'" in problems[0]


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
                if telemetry is None:
                    return
                telemetry.span("serve", "run", 0.0, report.makespan_s)
        """)}
        assert lint(files, "RPR006") == []

    def test_narrowed_tel_local_is_trusted(self):
        files = {"src/repro/serving/cluster.py": src("""
            def route(telemetry):
                tel = telemetry
                tel.count("cluster.routed")
        """)}
        assert lint(files, "RPR006") == []


class TestPlantedViolationsOnTheRealTree:
    """RPR001 and the fingerprint check must fail loudly on the real tree."""

    def test_planted_wall_clock_read_fails_rpr001(self):
        planted = "src/repro/serving/_planted_fixture.py"
        project = Project(REPO_ROOT, overlay={
            planted: "import time\n\nSTAMP = time.time()\n"})
        findings = run_lint(project, [planted],
                            rules=[RULE_REGISTRY["RPR001"]])
        assert [(f.path, f.line, f.rule) for f in findings] == [
            (planted, 3, "RPR001")]

    @staticmethod
    def _recorded_before_parallelism(version):
        """The live snapshot as if recorded before ``SweepPoint.parallelism``."""
        recorded = snapshot()
        contract = recorded["sweep-point"]
        fields = contract["definitions"]["repro.sweep.grid.SweepPoint"]
        fields.remove("parallelism: str = 'pipeline'")
        contract["version"] = version
        return recorded

    def test_synthetic_unbumped_fingerprint_diff_fails_rpr002(self):
        recorded = self._recorded_before_parallelism("sweep-point/v6")
        problems = unbumped(recorded, snapshot())
        assert len(problems) == 1
        assert problems[0].startswith(
            "repro.sweep.grid.SweepPoint changed but sweep-point is still "
            "'sweep-point/v6'")

    def test_bumped_version_string_silences_rpr002(self):
        recorded = self._recorded_before_parallelism("sweep-point/v5")
        live = snapshot()
        assert unbumped(recorded, live) == []
        assert live != recorded  # the golden still asks to be regenerated


class TestCliAndAcceptance:
    def test_repository_at_head_lints_clean(self):
        findings = lint_repository(REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_exits_zero_on_clean_tree(self, capsys):
        exit_code = main(["lint", "--root", str(REPO_ROOT)])
        assert exit_code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("rule_id", sorted(RULE_REGISTRY))
    def test_cli_one_rule_exits_zero_on_clean_tree(self, rule_id, capsys):
        # The tree's pragmas for the other rules are not stale because
        # those rules did not run.
        exit_code = main(["lint", "--root", str(REPO_ROOT), "--rules", rule_id])
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
        for rule_id in (META_RULE, *RULE_REGISTRY):
            assert rule_id in output
