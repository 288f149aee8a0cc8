"""Tests for the interprocedural concurrency analysis (``--interproc``).

The per-rule smoke checks (each rule flags its fixture) live in
``test_repro_lint.py`` next to the per-file rules; this module pins the
*exact* behavior: finding counts and anchors per fixture, the acquisition
graph built over the real tree, RLock reentrancy, the runtime-witness
cross-check verdicts, and the baseline ratchet.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.base import SourceFile
from repro.analysis.interproc import (
    CallGraph,
    WitnessEdge,
    build_program,
    canonical_path,
    cross_check,
)
from repro.analysis.interproc.witness import parse_witness
from repro.analysis.runner import (
    BASELINE_SCHEMA_VERSION,
    baseline_counts,
    load_baseline,
    new_versus_baseline,
    write_baseline,
)
from repro.analysis.runner import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures" / "interproc"
CORE_FIXTURES = Path(__file__).parent / "fixtures" / "core"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _analyze(name: str):
    return analyze_paths([FIXTURES / name], interproc=True)


def _build(path: str, text: str):
    program = build_program([SourceFile.read(path, text)])
    return program, CallGraph(program)


def _build_fixture(name: str):
    path = FIXTURES / name
    return _build(str(path), path.read_text(encoding="utf-8"))


class TestModel:
    def test_canonical_path_slices_at_known_roots(self):
        assert (
            canonical_path("/abs/checkout/src/repro/core/store.py")
            == "src/repro/core/store.py"
        )
        assert canonical_path("src/repro/cli.py") == "src/repro/cli.py"
        assert (
            canonical_path("/abs/tests/analysis/test_interproc.py")
            == "tests/analysis/test_interproc.py"
        )
        assert canonical_path("elsewhere/module.py") == "elsewhere/module.py"

    def test_rlock_is_marked_reentrant(self):
        program, _ = _build_fixture("good_rlock_reentrant.py")
        (lock,) = program.iter_lock_ids()
        assert lock.name == "ReentrantCounter._lock"
        assert lock.reentrant

    def test_plain_locks_are_not_reentrant(self):
        program, _ = _build_fixture("bad_lock_order_cycle.py")
        assert all(not lock.reentrant for lock in program.iter_lock_ids())
        assert {lock.name for lock in program.iter_lock_ids()} == {
            "Ledger._lock", "Journal._lock", "Counter._lock",
        }

    def test_lock_identity_carries_the_declaration_line(self):
        program, _ = _build_fixture("bad_thread_escape.py")
        (lock,) = program.iter_lock_ids()
        assert lock.line == 14  # the threading.Lock() call in __init__


class TestCallGraph:
    def test_cycle_fixture_acquisition_edges(self):
        _, graph = _build_fixture("bad_lock_order_cycle.py")
        edges = {(e.src.name, e.dst.name) for e in graph.edges.values()}
        assert edges == {
            ("Ledger._lock", "Journal._lock"),
            ("Journal._lock", "Ledger._lock"),
            ("Counter._lock", "Counter._lock"),
        }

    def test_edge_witness_names_the_call_chain(self):
        _, graph = _build_fixture("bad_lock_order_cycle.py")
        by_pair = {(e.src.name, e.dst.name): e for e in graph.edges.values()}
        witness = by_pair[("Ledger._lock", "Journal._lock")].witness
        assert "post" in witness and "append" in witness

    def test_rlock_reacquire_is_not_an_edge(self):
        _, graph = _build_fixture("good_rlock_reentrant.py")
        assert graph.edges == {}

    def test_real_tree_edges_match_the_runtime_witnessed_orders(self):
        root = REPO_ROOT / "src" / "repro"
        sources = [
            SourceFile.read(str(p), p.read_text(encoding="utf-8"))
            for p in sorted(root.rglob("*.py"))
        ]
        program = build_program(sources)
        graph = CallGraph(program)
        edges = {(e.src.name, e.dst.name) for e in graph.edges.values()}
        assert ("RequestScheduler._lock", "SQLiteResponseStore._lock") in edges


class TestRuleFindings:
    def test_lock_order_cycle_reports_cycle_and_self_deadlock(self):
        report = _analyze("bad_lock_order_cycle.py")
        findings = sorted(report.active, key=lambda f: f.line)
        assert [f.rule for f in findings] == ["lock-order-cycle"] * 2
        cycle, self_deadlock = findings
        assert "Ledger._lock -> Journal._lock" in cycle.message
        assert "Journal._lock -> Ledger._lock" in cycle.message
        assert "self-deadlock" in self_deadlock.message
        assert "Counter._lock" in self_deadlock.message

    def test_async_blocking_chases_the_sync_chain(self):
        report = _analyze("bad_async_blocking.py")
        (finding,) = report.active
        assert finding.rule == "async-blocking-call"
        assert finding.line == 14  # inside handle(), not down in _fetch()
        assert "time.sleep" in finding.message
        assert "_lookup" in finding.message and "_fetch" in finding.message

    def test_thread_escape_flags_only_the_unguarded_write(self):
        report = _analyze("bad_thread_escape.py")
        (finding,) = report.active
        assert finding.rule == "thread-escape"
        assert finding.line == 22
        assert "count" in finding.message

    def test_holds_transitive_crosses_the_object_boundary(self):
        report = _analyze("bad_holds_transitive.py")
        (finding,) = report.active
        assert finding.rule == "holds-transitive"
        assert finding.line == 29
        assert "flush" in finding.message

    def test_good_rlock_fixture_is_clean(self):
        report = _analyze("good_rlock_reentrant.py")
        assert report.ok and not list(report.active)

    def test_real_tree_is_interproc_clean(self):
        report = analyze_paths(
            [REPO_ROOT / "src" / "repro", REPO_ROOT / "scripts"],
            interproc=True,
        )
        assert report.ok, "\n".join(f.render() for f in report.active)
        # The deliberate service exceptions are suppressed, not absent.
        suppressed_rules = {f.rule for f in report.suppressed}
        assert {"async-blocking-call", "thread-escape"} <= suppressed_rules


_SYNTH_PATH = "src/repro/fake/pipes.py"
_SYNTH = """\
import threading


class Outer:
    def __init__(self, inner: "Inner") -> None:
        self._lock = threading.Lock()
        self.inner = inner

    def work(self):
        with self._lock:
            self.inner.poke()


class Inner:
    def __init__(self) -> None:
        self._lock = threading.Lock()

    def poke(self):
        with self._lock:
            pass
"""


class TestWitnessCrossCheck:
    @pytest.fixture()
    def synth(self):
        program, graph = _build(_SYNTH_PATH, _SYNTH)
        locks = {lock.name: lock for lock in program.iter_lock_ids()}
        return program, graph, locks["Outer._lock"], locks["Inner._lock"]

    def test_matching_edge_is_observed(self, synth):
        program, graph, outer, inner = synth
        edge = WitnessEdge(_SYNTH_PATH, outer.line, _SYNTH_PATH, inner.line, 5)
        result = cross_check(program, graph, [edge])
        assert result.ok
        assert [(e.src.name, e.dst.name) for e in result.observed] == [
            ("Outer._lock", "Inner._lock")
        ]
        assert result.unobserved == []

    def test_unmodeled_edge_is_a_problem(self, synth):
        program, graph, outer, inner = synth
        # The runtime saw the *inverse* order — the graph has no such edge.
        edge = WitnessEdge(_SYNTH_PATH, inner.line, _SYNTH_PATH, outer.line, 1)
        result = cross_check(program, graph, [edge])
        assert not result.ok
        (problem,) = result.problems
        assert "missing from the static graph" in problem
        assert "Inner._lock -> Outer._lock" in problem
        # The static edge stays unobserved.
        assert len(result.unobserved) == 1

    def test_unknown_creation_site_is_a_problem(self, synth):
        program, graph, outer, _ = synth
        edge = WitnessEdge(_SYNTH_PATH, outer.line, _SYNTH_PATH, 999, 1)
        result = cross_check(program, graph, [edge])
        assert not result.ok
        (problem,) = result.problems
        assert "no static declaration" in problem and ":999" in problem

    def test_out_of_scope_edges_are_skipped(self, synth):
        program, graph, outer, _ = synth
        edge = WitnessEdge(
            "concurrent/futures/thread.py", 155, _SYNTH_PATH, outer.line, 94
        )
        result = cross_check(program, graph, [edge])
        assert result.ok and result.n_skipped == 1

    def test_parse_witness_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            parse_witness({"schema_version": 999, "edges": []})

    def test_parse_witness_canonicalizes_paths(self):
        payload = {
            "schema_version": 1,
            "edges": [
                {
                    "src": {"path": "/abs/src/repro/core/scheduler.py", "line": 319},
                    "dst": {"path": "/abs/src/repro/core/store.py", "line": 135},
                    "count": 2,
                }
            ],
        }
        (edge,) = parse_witness(payload)
        assert edge.src_site == ("src/repro/core/scheduler.py", 319)
        assert edge.dst_site == ("src/repro/core/store.py", 135)
        assert edge.count == 2


class TestBaselineRatchet:
    def test_round_trip_and_counts(self, tmp_path):
        report = analyze_paths([CORE_FIXTURES / "bad_determinism.py"])
        destination = tmp_path / "baseline.json"
        write_baseline(destination, report)
        baseline = load_baseline(destination)
        assert baseline == baseline_counts(report.findings)
        assert all("::" in key for key in baseline)
        assert new_versus_baseline(report, baseline) == {}

    def test_regressions_exceeding_the_baseline_are_reported(self):
        report = analyze_paths([CORE_FIXTURES / "bad_determinism.py"])
        counts = baseline_counts(report.findings)
        key = sorted(counts)[0]
        shrunk = dict(counts)
        shrunk[key] -= 1
        regressions = new_versus_baseline(report, shrunk)
        assert regressions == {key: 1}

    def test_schema_mismatch_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"schema_version": 999, "counts": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(bad)
        assert BASELINE_SCHEMA_VERSION == 1

    def test_cli_ratchet_exit_codes(self, tmp_path, capsys):
        bad = str(FIXTURES / "bad_lock_order_cycle.py")
        baseline = tmp_path / "baseline.json"
        args = [bad, "--interproc"]
        assert lint_main(args + ["--write-baseline", str(baseline)]) == 0
        # Findings covered by the baseline pass strict mode...
        assert lint_main(args + ["--strict", "--baseline", str(baseline)]) == 0
        # ...an empty baseline fails it...
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema_version": 1, "counts": {}}))
        assert lint_main(args + ["--strict", "--baseline", str(empty)]) == 1
        # ...and a missing baseline is a usage error, not a silent pass.
        missing = str(tmp_path / "missing.json")
        assert lint_main(args + ["--strict", "--baseline", missing]) == 2
        capsys.readouterr()
