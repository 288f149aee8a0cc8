"""Tests for the experiment-suite orchestrator (registry, DAG, artifacts).

End-to-end runs are restricted to the two cheapest experiments (``shift``
and ``table1_cost`` cost no model queries; ``table2_rules`` is used where a
store-backed experiment is required) so the suite machinery is exercised
without replaying the whole paper on every test run — CI's suite-repro job
does that.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing

import pytest

from repro.core.store import SQLITE_STORE_FILENAME
from repro.exceptions import ConfigurationError, StoreError
from repro.experiments import suite
from repro.experiments.suite import (
    ExperimentSpec,
    PaperTarget,
    SuiteOptions,
    discover,
    experiment_module_names,
    load_results,
    ordered_specs,
    plan_shards,
    render_experiments_index,
    render_report,
    run_suite,
    select_experiments,
)


@pytest.fixture(scope="module")
def registry() -> dict[str, ExperimentSpec]:
    return discover()


class TestRegistry:
    def test_every_experiment_module_registered_exactly_once(self, registry):
        """Each artefact module registers one spec under its own name."""
        modules = {
            spec.module.rsplit(".", 1)[-1] for spec in registry.values()
        }
        assert modules == set(experiment_module_names())
        # Exactly once: names are dict keys, so a second registration from a
        # different module would have raised; check the module mapping is 1:1.
        assert len(registry) == len(modules)

    def test_specs_are_well_formed(self, registry):
        orders = [spec.order for spec in registry.values()]
        assert len(set(orders)) == len(orders), "duplicate paper order"
        for spec in registry.values():
            assert spec.artifact and spec.title and callable(spec.run)
            for target in spec.targets:
                assert target.metric and target.description
            for dependency in spec.after:
                assert dependency in registry
            if spec.shard_param is not None:
                assert spec.shard_param in spec.params

    def test_duplicate_name_from_other_module_rejected(self, registry):
        spec = next(iter(registry.values()))
        clone = ExperimentSpec(
            name=spec.name,
            artifact=spec.artifact,
            title=spec.title,
            run=spec.run,
            module="somewhere.else",
            order=99,
        )
        with pytest.raises(ConfigurationError, match="registered by both"):
            suite.register(clone)


class TestSelection:
    def test_only_filters_by_glob(self, registry):
        selected = select_experiments(registry, only=["table4*"])
        assert [spec.name for spec in selected] == ["table4_zeroshot"]
        selected = select_experiments(registry, only=["table*"])
        assert {spec.name for spec in selected} == {
            name for name in registry if name.startswith("table")
        }

    def test_skip_removes_matches(self, registry):
        selected = select_experiments(registry, skip=["fig*", "perclass"])
        names = {spec.name for spec in selected}
        assert "perclass" not in names
        assert not any(name.startswith("fig") for name in names)
        assert "table4_zeroshot" in names

    def test_only_and_skip_compose(self, registry):
        selected = select_experiments(
            registry, only=["table*"], skip=["table4*"]
        )
        names = {spec.name for spec in selected}
        assert "table4_zeroshot" not in names
        assert "table2_rules" in names

    def test_unknown_pattern_is_an_error(self, registry):
        with pytest.raises(ConfigurationError, match="matches no experiment"):
            select_experiments(registry, only=["tabel4*"])

    def test_selection_preserves_paper_order(self, registry):
        selected = select_experiments(registry)
        assert selected == ordered_specs(registry)


class TestPlanning:
    def test_sharded_experiments_fan_out(self, registry):
        tasks = plan_shards([registry["table2_rules"]], quick=True)
        assert [task.shard for task in tasks] == [
            "sotab-27", "d4-20", "amstr-56", "pubchem-20",
        ]
        for task in tasks:
            assert task.params["benchmarks"] == [task.shard]

    def test_dependency_on_unselected_experiment_is_dropped(self, registry):
        (task,) = plan_shards([registry["fig6_features"]], quick=True)
        assert task.after == ()
        tasks = plan_shards(
            [registry["table3_finetuned"], registry["fig6_features"]],
            quick=True,
        )
        fig6 = next(t for t in tasks if t.experiment == "fig6_features")
        assert fig6.after == ("table3_finetuned",)

    def test_fingerprint_changes_with_work(self, registry):
        (a,) = plan_shards([registry["shift"]], quick=True)
        (b,) = plan_shards([registry["shift"]], quick=True, seed=1)
        (c,) = plan_shards([registry["shift"]], quick=True, n_columns=33)
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_dependency_cycle_rejected(self, registry):
        base = registry["shift"]
        looped = ExperimentSpec(
            name="loop_a", artifact="x", title="x", run=base.run,
            module=base.module, order=90, after=("loop_b",),
        )
        other = ExperimentSpec(
            name="loop_b", artifact="x", title="x", run=base.run,
            module=base.module, order=91, after=("loop_a",),
        )
        with pytest.raises(ConfigurationError, match="cycle"):
            plan_shards([looped, other], quick=True)


class TestPaperTarget:
    def test_tolerance_band(self):
        target = PaperTarget("m", "d", paper_value=60.0, tolerance=5.0)
        assert target.status(64.0) == "pass"
        assert target.status(66.0) == "fail"
        assert target.status(None) == "missing"
        assert target.delta(64.0) == pytest.approx(4.0)

    def test_shape_bounds_and_info(self):
        assert PaperTarget("m", "d", min_value=0.0).status(1.0) == "pass"
        assert PaperTarget("m", "d", min_value=0.0).status(-1.0) == "fail"
        assert PaperTarget("m", "d", max_value=2.0).status(1.0) == "pass"
        assert PaperTarget("m", "d").status(123.0) == "info"


class TestSuiteRuns:
    OPTIONS = dict(quick=True, jobs=1, only=("shift", "table1_cost"),
                   progress=None)

    def test_end_to_end_writes_artifacts(self, tmp_path):
        result = run_suite(
            SuiteOptions(cache_dir=tmp_path / "cache", **self.OPTIONS)
        )
        assert result.ok
        assert {e.name for e in result.experiments} == {"shift", "table1_cost"}
        results_path = tmp_path / "cache" / "results.json"
        report_path = tmp_path / "cache" / "REPORT.md"
        assert results_path.exists() and report_path.exists()
        report = report_path.read_text(encoding="utf-8")
        assert "Measured vs. paper targets" in report
        assert "Section 1" in report and "Table 1" in report
        payload = json.loads(results_path.read_text(encoding="utf-8"))
        assert payload["schema_version"] == suite.RESULTS_SCHEMA_VERSION
        assert payload["totals"]["n_evaluations"] == 3

    def test_results_json_schema_round_trip(self, tmp_path):
        result = run_suite(
            SuiteOptions(output_dir=tmp_path, **self.OPTIONS)
        )
        loaded = load_results(tmp_path / "results.json")
        assert loaded.to_dict() == result.to_dict()
        # The key order is part of the layout readers diff against.
        payload = json.loads((tmp_path / "results.json").read_text())
        counters = [
            "n_queries", "n_cache_hits", "n_store_hits", "n_inflight_hits",
            "n_coalesced", "n_batches", "n_cross_request_batches",
        ]
        assert list(payload["totals"]) == ["n_evaluations", *counters]
        for entry in payload["experiments"]:
            assert list(entry) == [
                "name", "artifact", "title", "status", "wall_time_s",
                "n_evaluations", *counters,
                "metrics", "rows", "shards", "errors",
            ]
        # A second serialize → parse cycle is byte-stable.
        loaded.write(tmp_path / "again.json")
        assert (
            (tmp_path / "again.json").read_text()
            == (tmp_path / "results.json").read_text()
        )

    def test_schema_version_mismatch_rejected(self, tmp_path):
        run_suite(SuiteOptions(output_dir=tmp_path, **self.OPTIONS))
        payload = json.loads((tmp_path / "results.json").read_text())
        payload["schema_version"] = 999
        (tmp_path / "results.json").write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="schema version"):
            load_results(tmp_path / "results.json")

    def test_empty_selection_is_an_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_suite(
                SuiteOptions(
                    quick=True, only=("shift",), skip=("shift",),
                    output_dir=tmp_path, progress=None,
                )
            )

    def test_failing_experiment_reported_not_raised(self, tmp_path, registry):
        broken = ExperimentSpec(
            name="broken", artifact="none", title="always fails",
            run=_always_raise, module=__name__, order=80,
        )
        suite._REGISTRY["broken"] = broken
        try:
            result = run_suite(
                SuiteOptions(
                    quick=True, jobs=1, only=("broken", "shift"),
                    output_dir=tmp_path, progress=None,
                )
            )
        finally:
            del suite._REGISTRY["broken"]
        assert not result.ok
        by_name = {e.name: e for e in result.experiments}
        assert by_name["broken"].status == "error"
        assert "deliberately broken" in by_name["broken"].errors[0]
        assert by_name["shift"].status == "ok"


class TestResume:
    def test_killed_worker_shard_resumes_warm_from_store(self, tmp_path):
        """A shard missing from the journal re-runs with zero model queries.

        Simulates a worker killed mid-suite: the cold run completes and
        journals every shard, then one shard's journal entry is dropped (as
        if the worker died before recording it) while the response store
        keeps the answers its evaluations already paid for.  Resuming must
        replay the journalled shards without re-executing them and re-run
        the "killed" one entirely from the store.
        """
        cache_dir = tmp_path / "cache"
        options = dict(
            quick=True, jobs=1, only=("table2_rules",), progress=None,
            cache_dir=cache_dir,
        )
        cold = run_suite(SuiteOptions(**options))
        assert cold.ok and cold.totals["n_queries"] > 0

        store = cache_dir / SQLITE_STORE_FILENAME
        with closing(sqlite3.connect(store)) as conn, conn:
            dropped = conn.execute(
                "DELETE FROM suite_shards WHERE suite_run_id = ?"
                " AND json_extract(record, '$.shard') = 'd4-20'",
                (cold.suite_run_id,),
            ).rowcount
        assert dropped == 1

        resumed = run_suite(
            SuiteOptions(resume=cold.suite_run_id, **options)
        )
        assert resumed.ok
        # The re-run shard was answered entirely by the persistent store...
        assert resumed.totals["n_queries"] == 0
        assert resumed.totals["n_store_hits"] > 0
        # ...its metrics are bit-identical to the cold run's...
        assert (
            resumed.experiments[0].metrics == cold.experiments[0].metrics
        )
        # ...and only that shard actually executed (3 replayed, 1 live).
        shards = {
            s["shard"]: s for s in resumed.experiments[0].shards
        }
        assert shards["d4-20"]["cached"] is False
        assert all(
            shards[name]["cached"] for name in shards if name != "d4-20"
        )

    def test_resumed_run_reports_none_of_the_recorded_work(self, tmp_path):
        """Replaying journalled shards touches no tier and drains no batch."""
        cache_dir = tmp_path / "cache"
        options = dict(
            quick=True, jobs=1, only=("fig4_sampling",), progress=None,
            cache_dir=cache_dir,
        )
        cold = run_suite(SuiteOptions(**options))
        assert cold.ok and cold.totals["n_batches"] > 0

        resumed = run_suite(
            SuiteOptions(resume=cold.suite_run_id, **options)
        )
        assert resumed.ok
        assert resumed.totals["n_evaluations"] == cold.totals["n_evaluations"]
        counters = {
            name: value for name, value in resumed.totals.items()
            if name != "n_evaluations"
        }
        assert counters == dict.fromkeys(counters, 0)
        report = (cache_dir / "REPORT.md").read_text(encoding="utf-8")
        assert "scheduler: 0 batches drained" in report

    def test_resume_requires_cache_dir(self):
        with pytest.raises(ConfigurationError, match="cache-dir"):
            run_suite(
                SuiteOptions(quick=True, resume="nope", only=("shift",),
                             progress=None)
            )

    def test_resume_unknown_run_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no suite journal"):
            run_suite(
                SuiteOptions(
                    quick=True, resume="missing-run", only=("shift",),
                    cache_dir=tmp_path, progress=None,
                )
            )

    def test_resume_of_a_run_that_recorded_no_shard_is_rejected(self, tmp_path):
        """A suite run killed before its first shard finished left no row."""
        started: list[str] = []

        def killed_after_the_header(line: str) -> None:
            started.append(line.split()[1].rstrip(":"))
            raise _Killed

        options = dict(quick=True, only=("shift",), cache_dir=tmp_path)
        with pytest.raises(_Killed):
            run_suite(SuiteOptions(progress=killed_after_the_header, **options))
        with pytest.raises(ConfigurationError, match="no suite journal"):
            run_suite(SuiteOptions(resume=started[0], progress=None, **options))

    def test_not_a_database_raises_store_error(self, tmp_path):
        (tmp_path / SQLITE_STORE_FILENAME).write_bytes(b"not sqlite\n" * 64)
        with pytest.raises(StoreError, match="cannot open"):
            run_suite(
                SuiteOptions(quick=True, only=("shift",), cache_dir=tmp_path,
                             progress=None)
            )

    def test_stale_fingerprint_reruns_shard(self, tmp_path):
        """Journalled results are only reused for identical work."""
        options = dict(quick=True, jobs=1, only=("shift",), progress=None,
                       cache_dir=tmp_path / "cache")
        cold = run_suite(SuiteOptions(**options))
        resumed = run_suite(
            SuiteOptions(resume=cold.suite_run_id, seed=7, **options)
        )
        (shard,) = resumed.experiments[0].shards
        assert shard["cached"] is False


class TestRendering:
    def test_report_marks_failed_targets(self, registry, tmp_path):
        result = run_suite(
            SuiteOptions(quick=True, only=("shift",), progress=None,
                         output_dir=tmp_path)
        )
        text = render_report(result, registry)
        assert "| pass |" in text or "| fail |" in text

    def test_experiments_index_lists_every_spec(self, registry):
        text = render_experiments_index(registry)
        for name in registry:
            assert f"`{name}`" in text


class _Killed(Exception):
    """Stands in for the process dying at the point it is raised."""


def _always_raise(config):
    raise RuntimeError("deliberately broken")
