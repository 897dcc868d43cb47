"""Fixture tests for the repro lint framework: every rule fires and stays quiet.

Each rule gets a positive fixture (deliberate violations under
``tests/lint_fixtures/``) proving it fires with the right count, and a
negative fixture proving it stays silent on compliant code.  Engine
behavior — suppression comments, SUP001 unused-suppression warnings,
JSON schema, discovery exclusions, CLI exit codes — is covered here too,
and the final gate test asserts the real tree lints clean.
"""

import io
import json
import tokenize
from pathlib import Path

import pytest

from repro.analysis.engine import (
    EXCLUDED_DIRS,
    JSON_SCHEMA_VERSION,
    LintEngine,
    discover_files,
)
from repro.analysis.rules import default_rules, rule_by_id
from repro.cli import main
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO = Path(__file__).parent.parent


def lint_with(rule_id, *relpaths):
    """Run one rule over fixture files; returns (engine, findings)."""
    engine = LintEngine([rule_by_id(rule_id)])
    findings = engine.run([FIXTURES / rel for rel in relpaths])
    return engine, findings


class TestLockOrderRule:
    def test_fires_on_abba(self):
        _, findings = lint_with("LCK001", "lck001/bad_order.py")
        assert len(findings) == 2  # both edges of the cycle are flagged
        assert all(f.rule_id == "LCK001" for f in findings)
        assert "cycle" in findings[0].message

    def test_silent_on_consistent_order(self):
        _, findings = lint_with("LCK001", "lck001/good_order.py")
        assert findings == []

    def test_cycle_across_files(self):
        # Class-qualified lock identities unify across files: half A takes
        # queue->state, half B takes state->queue on the same class.
        for half in ("lck001/cross_a.py", "lck001/cross_b.py"):
            _, alone = lint_with("LCK001", half)
            assert alone == []  # either half alone is a valid order
        _, findings = lint_with(
            "LCK001", "lck001/cross_a.py", "lck001/cross_b.py"
        )
        assert len(findings) == 2
        assert {Path(f.path).name for f in findings} == {
            "cross_a.py", "cross_b.py",
        }


class TestLockHeldBlockingRule:
    def test_fires_on_sleep_and_recv(self):
        _, findings = lint_with("LCK002", "lck002/bad_blocking.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "time.sleep()" in messages
        assert ".recv()" in messages

    def test_silent_outside_lock_and_for_io_locks(self):
        _, findings = lint_with("LCK002", "lck002/good_blocking.py")
        assert findings == []


class TestBroadExceptRule:
    def test_fires_on_broad_and_bare(self):
        _, findings = lint_with("EXC001", "exc001/dist/bad_except.py")
        assert len(findings) == 2
        kinds = {f.message.split(" on ")[0] for f in findings}
        assert kinds == {"broad except", "bare except"}

    def test_silent_on_narrow_wrapping_or_tagged(self):
        _, findings = lint_with("EXC001", "exc001/dist/good_except.py")
        assert findings == []

    def test_out_of_scope_outside_dist(self):
        # The same violations in a non-dist path are out of scope.
        _, findings = lint_with("EXC001", "lck002/bad_blocking.py")
        assert findings == []


class TestInjectableClockRule:
    def test_fires_on_module_and_bare_calls(self):
        _, findings = lint_with("CLK001", "clk001/serve/bad_clock.py")
        assert len(findings) == 3
        assert {"time.monotonic", "time.sleep", "monotonic"} == {
            f.message.split("(")[0].split()[1] for f in findings
        }

    def test_silent_on_injected_clock(self):
        _, findings = lint_with("CLK001", "clk001/serve/good_clock.py")
        assert findings == []

    def test_clock_adapter_exempt_only_outside_clocked_trees(self):
        # a clock.py under serve/ is an ordinary serve/ module
        _, findings = lint_with("CLK001", "clk001/serve/clock.py")
        assert {"time.monotonic", "time.sleep"} == {
            f.message.split("(")[0].split()[1] for f in findings
        }
        assert "repro.util.clock.Clock" in findings[0].message
        _, findings = lint_with("CLK001", "clk001/util/clock.py")
        assert findings == []

    def test_fires_on_pool_tree(self, tmp_path):
        _, findings = lint_with("CLK001", "clk001/pool/bad_clock.py")
        assert len(findings) == 3
        assert {"time.monotonic", "sleep"} == {
            f.message.split("(")[0].split()[1] for f in findings
        }
        # dist/, the runtime the pool drives, is held to the same contract
        moved = tmp_path / "dist" / "bad_clock.py"
        moved.parent.mkdir()
        moved.write_text((FIXTURES / "clk001/pool/bad_clock.py").read_text())
        assert len(LintEngine([rule_by_id("CLK001")]).run([moved])) == 3
        # perf_counter is a wall-clock read too, qualified or bare
        timer = tmp_path / "dist" / "timer.py"
        timer.write_text(
            "import time\nfrom time import perf_counter\n"
            "t0 = time.perf_counter()\nt1 = perf_counter()\n"
        )
        assert len(LintEngine([rule_by_id("CLK001")]).run([timer])) == 2

    def test_silent_on_clock_injected_pool(self):
        _, findings = lint_with("CLK001", "clk001/pool/good_clock.py")
        assert findings == []

    def test_out_of_scope_outside_clocked_trees(self):
        # The same time.* calls outside serve/, pool/ and dist/ are not
        # flagged.
        _, findings = lint_with("CLK001", "lck002/bad_blocking.py")
        assert findings == []


class TestWireConstantRule:
    def test_fires_on_duplicated_literals(self):
        _, findings = lint_with(
            "WIRE001", "wire001/wire.py", "wire001/bad_client.py"
        )
        assert len(findings) == 3  # bytes magic, format string, int magic
        assert all("bad_client.py" in f.path for f in findings)

    def test_silent_on_imports_and_unrelated_literals(self):
        _, findings = lint_with(
            "WIRE001", "wire001/wire.py", "wire001/good_client.py"
        )
        assert findings == []

    def test_builtin_seed_catches_frame_magic_anywhere(self, tmp_path):
        rogue = tmp_path / "rogue.py"
        rogue.write_text('HEADER = b"LCDF"\n')
        engine = LintEngine([rule_by_id("WIRE001")])
        findings = engine.run([rogue])
        assert len(findings) == 1
        assert "FRAME_MAGIC" in findings[0].message


class TestWireCopyRule:
    def test_fires_on_bytes_and_join_under_dist(self):
        _, findings = lint_with("WIRE002", "wire002/dist/bad_copies.py")
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "bytes(...)" in messages
        assert "measured_join" in messages
        assert "Segments" in messages

    def test_silent_on_allocations_and_audited_joins(self):
        _, findings = lint_with("WIRE002", "wire002/dist/good_copies.py")
        assert findings == []

    def test_serialize_basename_is_in_scope(self):
        _, findings = lint_with("WIRE002", "wire002/serialize.py")
        assert len(findings) == 1

    def test_out_of_scope_outside_dist(self):
        _, findings = lint_with("WIRE002", "wire002/outside.py")
        assert findings == []

    def test_disable_comment_suppresses(self, tmp_path):
        mod = tmp_path / "dist"
        mod.mkdir()
        cold = mod / "cold.py"
        cold.write_text(
            "def snapshot(view):\n"
            "    return bytes(view)  # repro-lint: disable=WIRE002\n"
        )
        engine = LintEngine([rule_by_id("WIRE002")])
        assert engine.run([cold]) == []


class TestExportHygieneRule:
    def test_fires_on_unpledged_and_ghost_names(self):
        _, findings = lint_with("API001", "api001/bad_exports.py")
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 3
        assert "unpledged_public" in messages
        assert "UnpledgedThing" in messages
        assert "ghost_entry" in messages

    def test_silent_on_complete_all(self):
        _, findings = lint_with("API001", "api001/good_exports.py")
        assert findings == []


class TestNumpyContractRule:
    def test_fires_on_dtype_and_shape_contradictions(self):
        _, findings = lint_with("NDA001", "nda001/core/bad_contract.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "float64" in messages and "float32" in messages
        assert "flattens" in messages

    def test_silent_on_kept_or_undeclared_contracts(self):
        _, findings = lint_with("NDA001", "nda001/core/good_contract.py")
        assert findings == []


class TestResourceReleaseRule:
    def test_fires_on_leaky_paths_with_witness(self):
        _, findings = lint_with("RES001", "res001/bad_leak.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "socket 'sock'" in messages
        assert "SendWindow 'window'" in messages
        # convictions name the escaping CFG path, not just the acquire line
        for f in findings:
            assert "escaping path" in f.message
            assert "function exit" in f.message
        leak = next(f for f in findings if "sock" in f.message)
        assert "line" in leak.message  # witness steps carry line numbers

    def test_silent_on_released_and_handed_off_resources(self):
        _, findings = lint_with("RES001", "res001/good_release.py")
        assert findings == []


class TestLockPairingRule:
    def test_fires_on_unreleased_paths_with_witness(self):
        _, findings = lint_with("LCK003", "lck003/bad_pairing.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "_state_lock.acquire()" in messages
        assert "escaping path" in messages
        assert "with" in messages  # the fix suggestion

    def test_silent_on_paired_with_and_try_acquire(self):
        _, findings = lint_with("LCK003", "lck003/good_pairing.py")
        assert findings == []


class TestWireTagRule:
    BAD = ("tag001/bad/dist/collectives.py", "tag001/bad/dist/wire_user.py")
    GOOD = ("tag001/good/dist/collectives.py", "tag001/good/dist/wire_user.py")

    def test_fires_on_duplicate_orphan_and_stray_tags(self):
        _, findings = lint_with("TAG001", *self.BAD)
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "duplicate wire tag value 1" in messages
        assert "TAG_CLASH" in messages and "TAG_PING" in messages
        assert "TAG_LOCAL" in messages  # defined outside the registry
        assert "TAG_ORPHAN" in messages  # sent but never received
        assert "TAG_PONG" in messages  # received but never sent

    def test_both_sites_are_named(self):
        _, findings = lint_with("TAG001", *self.BAD)
        dup = next(f for f in findings if "duplicate" in f.message)
        # the message carries path:line for both colliding definitions
        assert dup.message.count(":") >= 2
        assert "collectives.py" in dup.message

    def test_silent_on_registry_homed_paired_tags(self):
        _, findings = lint_with("TAG001", *self.GOOD)
        assert findings == []

    def test_real_registry_is_the_single_home(self):
        # the shipped tree keeps every TAG_* in dist/collectives.py,
        # including the pool checkpoint tag this rule forced home, and
        # no other module re-exports one under its own name
        from repro.dist import collectives, jobs

        assert collectives.TAG_POOL_CHECKPOINT == 6
        assert not hasattr(jobs, "TAG_POOL_CHECKPOINT")


class TestGenerationFenceRule:
    #: GEN001 is in scope wherever a job handler can live: ``pool/`` and,
    #: since the handler moved down, ``dist/``
    COMPONENTS = ("pool", "dist")

    @staticmethod
    def _lint(kind, component, tmp_path):
        """The ``gen001/<kind>`` fixture linted as ``<component>/handler.py``."""
        source = FIXTURES / "gen001" / kind / "pool" / "handler.py"
        target = tmp_path / kind / component / "handler.py"
        target.parent.mkdir(parents=True)
        target.write_text(source.read_text())
        return LintEngine([rule_by_id("GEN001")]).run([target])

    def test_fires_on_unfenced_execute_and_silent_mutation(self, tmp_path):
        for component in self.COMPONENTS:
            findings = self._lint("bad", component, tmp_path)
            assert len(findings) == 2, component
            unfenced = next(f for f in findings if "execute_job" in f.message)
            assert "fence" in unfenced.message
            assert "unfenced path" in unfenced.message
            silent = next(f for f in findings if "admit" in f.message)
            assert "generation" in silent.message

    def test_silent_on_fenced_paths_and_bumping_mutations(self, tmp_path):
        for component in self.COMPONENTS:
            assert self._lint("good", component, tmp_path) == [], component

    def test_out_of_scope_outside_pool(self, tmp_path):
        # the same shapes outside a pool/ or dist/ component are not flagged
        bad = FIXTURES / "gen001" / "bad" / "pool" / "handler.py"
        stray = tmp_path / "handler.py"
        stray.write_text(bad.read_text())
        engine = LintEngine([rule_by_id("GEN001")])
        assert engine.run([stray]) == []


class TestReachabilityRule:
    ROOT = FIXTURES / "dead001"

    @staticmethod
    def _flagged(*paths):
        engine = LintEngine([rule_by_id("DEAD001")])
        return [f for f in engine.run(list(paths)) if f.rule_id == "DEAD001"]

    def test_fires_on_unreferenced_definitions(self):
        findings = self._flagged(self.ROOT / "src")
        assert {f.message.split("'")[1] for f in findings} == {
            "unreferenced_function",  # its own recursive mention is not a use
            "UnreferencedClass",
            "Used.unreferenced_method",
            "only_reexported",  # named only by __init__'s import and __all__
            "only_in_tests",  # tests/ is not a reference root
        }
        assert all(f.path.endswith("src/repro/mod.py") for f in findings)

    def test_silent_on_exempt_and_referenced_definitions(self):
        # a decorated registry runner, visit_* of a NodeVisitor subclass
        # (two levels down), a dunder, a suppressed oracle, a benchmark's
        # callee, and methods program code calls
        names = " ".join(f.message for f in self._flagged(self.ROOT / "src"))
        for silent in (
            "registered_runner", "visit_Name", "visit_Call", "__repr__",
            "'oracle'", "used_by_benchmark", "used_method", "BaseVisitor",
        ):
            assert silent not in names

    def test_reference_roots_do_not_depend_on_linted_paths(self):
        alone = self._flagged(self.ROOT / "src")
        everything = self._flagged(
            self.ROOT / "src", self.ROOT / "tests", self.ROOT / "benchmarks"
        )
        assert alone == everything
        one_file = self._flagged(self.ROOT / "src" / "repro" / "mod.py")
        assert one_file == alone

    def test_real_tree_src_alone_matches_src_tests_benchmarks(self):
        alone = self._flagged(REPO / "src")
        everything = self._flagged(
            REPO / "src", REPO / "tests", REPO / "benchmarks"
        )
        assert alone == everything == []

    def test_real_tree_suppressions_are_reasoned_oracles(self):
        """Every DEAD001 suppression under src/ names the test it serves."""
        marks = [
            (path, tok.string)
            for path in sorted((REPO / "src").rglob("*.py"))
            for tok in tokenize.generate_tokens(
                io.StringIO(path.read_text()).readline
            )
            if tok.type == tokenize.COMMENT and "disable=DEAD001" in tok.string
        ]
        assert marks
        for path, comment in marks:
            named = comment.split()[-1].split("::")[0]
            assert (REPO / "tests" / Path(named).name).is_file(), (path, comment)


class TestSuppressions:
    def test_disable_comment_silences_and_stale_comment_warns(self):
        engine = LintEngine()
        findings = engine.run([FIXTURES / "suppress/suppressed.py"])
        assert [f.rule_id for f in findings] == ["SUP001"]
        assert findings[0].severity == "warning"
        assert "LCK002" in findings[0].message

    def test_docstring_mentioning_marker_is_not_a_suppression(self, tmp_path):
        mod = tmp_path / "doc.py"
        mod.write_text(
            '"""Docs may say repro-lint: disable=LCK002 freely."""\n'
            "x = 1\n"
        )
        assert LintEngine().run([mod]) == []


class TestEngine:
    def test_discovery_skips_fixture_trees(self):
        files = discover_files([FIXTURES.parent])
        assert "lint_fixtures" in EXCLUDED_DIRS
        assert not any("lint_fixtures" in str(f) for f in files)

    def test_missing_path_is_loud(self):
        with pytest.raises(ConfigurationError, match="does not exist"):
            discover_files([FIXTURES / "no_such_dir"])

    def test_syntax_error_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        findings = LintEngine().run([broken])
        assert [f.rule_id for f in findings] == ["PAR000"]

    def test_findings_sorted_and_formatted(self):
        _, findings = lint_with("LCK002", "lck002/bad_blocking.py")
        assert findings == sorted(findings)
        text = findings[0].format()
        path, line, col, rest = text.split(":", 3)
        assert path.endswith("bad_blocking.py")
        assert int(line) > 0 and int(col) > 0
        assert rest.strip().startswith("LCK002 ")

    def test_json_schema(self):
        engine = LintEngine()
        findings = engine.run([FIXTURES / "exc001" / "dist" / "bad_except.py"])
        doc = json.loads(engine.to_json(findings))
        assert doc["version"] == JSON_SCHEMA_VERSION
        assert doc["files_scanned"] == 1
        assert doc["counts"] == {"EXC001": 2}
        assert sorted(doc["rules"]) == sorted(
            r.rule_id for r in map(lambda c: c, default_rules())
        )
        for entry in doc["findings"]:
            assert set(entry) == {
                "path", "line", "col", "rule", "message", "severity",
            }
        # schema v2: per-rule wall time rides along for CI budgets
        assert set(doc["timings"]) == set(doc["rules"])
        assert all(sec >= 0.0 for sec in doc["timings"].values())
        assert doc["total_seconds"] >= max(doc["timings"].values())
        for new_rule in ("RES001", "LCK003", "TAG001", "GEN001", "DEAD001"):
            assert new_rule in doc["rules"]

    def test_rule_by_id_unknown_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown lint rule"):
            rule_by_id("NOPE999")


class TestCli:
    def test_lint_findings_exit_1(self, capsys):
        bad = FIXTURES / "clk001" / "serve" / "bad_clock.py"
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "CLK001" in out and "error(s)" in out

    def test_lint_clean_exit_0(self, capsys):
        good = FIXTURES / "clk001" / "serve" / "good_clock.py"
        assert main(["lint", str(good)]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        bad = FIXTURES / "api001" / "bad_exports.py"
        assert main(["lint", str(bad), "--format=json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"API001": 3}

    def test_lint_timing_table(self, capsys):
        good = FIXTURES / "clk001" / "serve" / "good_clock.py"
        assert main(["lint", str(good), "--timing"]) == 0
        out = capsys.readouterr().out
        assert "rule timings:" in out
        assert "RES001" in out and "ms" in out

    def test_lint_missing_path_exit_2(self, capsys):
        assert main(["lint", "definitely/not/here"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_paths_rejected_for_other_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "src"])
        assert exc.value.code == 2


class TestTreeIsClean:
    def test_src_lints_clean(self):
        """The gate: the shipped tree has zero findings under src/, DEAD001
        included — no public definition that program code never names."""
        engine = LintEngine()
        assert "DEAD001" in {rule.rule_id for rule in engine.rules}
        findings = engine.run([REPO / "src"])
        assert findings == [], "\n" + engine.to_text(findings)

    def test_tests_and_benchmarks_lint_clean(self):
        engine = LintEngine()
        findings = engine.run([REPO / "tests", REPO / "benchmarks"])
        assert findings == [], "\n" + engine.to_text(findings)
