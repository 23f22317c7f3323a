"""The CI smoke-manifest convention and the bench-trend merger.

``benchmarks/ci_smoke.json`` drives the CI bench-smoke matrix (one job per
entry: bench file -> test ids -> tiny-size ``-k`` filter -> artifact
name); these tests keep the manifest honest against the benchmark sources
so a renamed test or file fails here, not silently in CI.
``benchmarks/merge_trend.py`` (the final CI job) folds the uploaded
``bench-*.json`` artifacts into one ``bench-trend.json`` + summary table.
``.github/requirements-ci.txt`` must install every third-party module the
tier-1 tests import, or a clean CI install fails at collection.
The repository benchmark (``perfbench/``) imports library names and wraps
layer entry points in its traced runs; a deleted or renamed one fails
``TestPerfbenchReach`` here, not only CI's full traced perfbench pass, and
so does a moved charge in its warm-up builds' golden ledgers.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
MANIFEST = REPO / "benchmarks" / "ci_smoke.json"
REQUIREMENTS = REPO / ".github" / "requirements-ci.txt"

sys.path.insert(0, str(REPO / "benchmarks"))
import merge_trend  # noqa: E402


@pytest.fixture(scope="module")
def entries():
    return json.loads(MANIFEST.read_text())["entries"]


class TestSmokeManifest:
    def test_names_and_artifacts_unique(self, entries):
        names = [e["name"] for e in entries]
        artifacts = [e["artifact"] for e in entries]
        assert len(set(names)) == len(names)
        assert len(set(artifacts)) == len(artifacts)

    def test_entry_shape(self, entries):
        for e in entries:
            assert set(e) == {"name", "file", "tests", "filter", "artifact"}
            assert isinstance(e["tests"], list)
            assert isinstance(e["filter"], str)
            # The trend job downloads artifacts by the bench-* pattern.
            assert e["artifact"].startswith("bench-"), e["name"]

    def test_bench_files_exist(self, entries):
        for e in entries:
            path = REPO / e["file"]
            assert path.is_file(), f"{e['name']}: missing {e['file']}"

    def test_listed_tests_exist_in_source(self, entries):
        for e in entries:
            tree = ast.parse((REPO / e["file"]).read_text())
            defined = {
                node.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for test in e["tests"]:
                assert test in defined, f"{e['name']}: {test} not in {e['file']}"

    def test_e14_is_wired_in(self, entries):
        # Acceptance criterion of the forest-backed app PR: the batched
        # apps benchmark runs in CI smoke and lands in the merged trend.
        e14 = [e for e in entries if e["name"] == "e14"]
        assert len(e14) == 1
        assert e14[0]["file"] == "benchmarks/bench_e14_batched_apps.py"
        assert "test_e14_forest_kmedian_dp" in e14[0]["tests"]

    def test_smoke_selectors_collect(self, entries):
        """Every entry's selector set + filter collects >= 1 test."""
        for e in entries:
            select = (
                [f"{e['file']}::{t}" for t in e["tests"]]
                if e["tests"]
                else [e["file"]]
            )
            cmd = [sys.executable, "-m", "pytest", "-q", "--collect-only", *select]
            if e["filter"]:
                cmd += ["-k", e["filter"]]
            proc = subprocess.run(
                cmd, cwd=REPO, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, f"{e['name']}: {proc.stdout}{proc.stderr}"
            assert "no tests ran" not in proc.stdout, e["name"]


def _fake_artifact(path, name, mean, extra):
    path.write_text(
        json.dumps(
            {
                "datetime": "2026-07-26T00:00:00",
                "benchmarks": [
                    {
                        "name": name,
                        "group": None,
                        "stats": {"mean": mean, "stddev": 0.0, "rounds": 1},
                        "extra_info": extra,
                    }
                ],
            }
        )
    )


class TestMergeTrend:
    def test_merge_and_summary(self, tmp_path):
        _fake_artifact(tmp_path / "bench-e13.json", "t_a[128-4]", 0.5, {"speedup": 2.0})
        _fake_artifact(tmp_path / "bench-e14.json", "t_b[128-4]", 0.1, {"n": 128})
        trend = merge_trend.merge_files(sorted(tmp_path.glob("bench-*.json")))
        assert trend["schema"] == merge_trend.SCHEMA
        assert [s["file"] for s in trend["sources"]] == [
            "bench-e13.json",
            "bench-e14.json",
        ]
        assert trend["sources"][0]["benchmarks"][0]["mean_s"] == 0.5
        summary = merge_trend.render_summary(trend)
        assert "t_a[128-4]" in summary and "speedup=2" in summary
        assert summary.count("|") >= 4 * 2  # a table with both rows

    def test_main_writes_out_and_summary(self, tmp_path):
        _fake_artifact(tmp_path / "bench-e7.json", "t_c", 0.2, {})
        out = tmp_path / "bench-trend.json"
        summary = tmp_path / "summary.md"
        rc = merge_trend.main(
            [str(tmp_path), "--out", str(out), "--summary", str(summary)]
        )
        assert rc == 0
        trend = json.loads(out.read_text())
        assert len(trend["sources"]) == 1
        assert "t_c" in summary.read_text()

    def test_main_fails_without_artifacts(self, tmp_path):
        assert merge_trend.main([str(tmp_path)]) == 1

    def test_unreadable_artifact_skipped(self, tmp_path):
        _fake_artifact(tmp_path / "bench-ok.json", "t_d", 0.3, {})
        (tmp_path / "bench-broken.json").write_text("{not json")
        trend = merge_trend.merge_files(sorted(tmp_path.glob("bench-*.json")))
        assert [s["file"] for s in trend["sources"]] == ["bench-ok.json"]


def _requirement_names(lines):
    """Distribution names of pip requirement lines (comments skipped)."""
    names = set()
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(re.split(r"[<>=!~;\[ ]", line, maxsplit=1)[0].lower())
    return names


class TestCIRequirements:
    def test_every_third_party_test_import_is_installed(self):
        local = {"repro", "tools", "tests", "perfbench", "merge_trend", "check_trend"}
        imported = set()
        for path in (REPO / "tests").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - local
        missing = third_party - _requirement_names(REQUIREMENTS.read_text().splitlines())
        assert not missing, f"imported by tests but not installed by CI: {missing}"

    def test_requirements_match_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
        declared = project["dependencies"] + project["optional-dependencies"]["dev"]
        ci = _requirement_names(REQUIREMENTS.read_text().splitlines())
        assert ci == _requirement_names(declared)


class TestPerfbenchReach:
    def test_layer_spans_install_and_restore(self):
        # Importing the workloads resolves every library name perfbench
        # imports; installing the layer spans resolves every attribute it
        # wraps (a missing one raises).  restore() must put back each
        # original object, so untraced runs execute the library unmodified.
        from perfbench.spans import Tracer
        from perfbench.workloads import install_layer_spans

        class RecordingTracer(Tracer):
            def __init__(self):
                super().__init__()
                self.wrapped = []

            def wrap(self, owner, attr, name, on_result=None, skip_under=None):
                self.wrapped.append((owner, attr, vars(owner).get(attr)))
                super().wrap(owner, attr, name, on_result, skip_under)

        tracer = RecordingTracer()
        try:
            install_layer_spans(tracer)
            assert tracer.wrapped
            for owner, attr, original in tracer.wrapped:
                assert original is not None, f"{owner.__name__}.{attr}"
                assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
        finally:
            tracer.restore()
        for owner, attr, original in tracer.wrapped:
            assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"

    @pytest.mark.parametrize("method", ["oracle", "direct"])
    def test_warm_up_ledgers_match_golden(self, method):
        # The benchmark checks each warm-up build's merged model work and
        # depth against golden.json; a moved charge would otherwise show
        # only as a failed operation in a benchmark run.  Same instance,
        # setup and seed as perfbench's warm-up, with no artifact written.
        import numpy as np
        from perfbench import workloads

        spec = workloads.WARM[method]
        G = workloads._graph(spec, np.random.SeedSequence([0, 0]))
        pipe, _ = workloads.setup_pipeline(G, method)
        res = pipe.sample_ensemble(spec.k, seed=workloads.WARM_SEED)
        golden = json.loads(workloads.GOLDEN.read_text())[method]
        assert (res.ledger.work, res.ledger.depth) == (golden["work"], golden["depth"])
