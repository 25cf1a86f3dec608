"""The manifest commands still write what ``tests/golden/outputs.json`` records.

See ``tests/manifest.py`` for what the manifest holds and how to rewrite it.
"""

import json
import shutil

import pytest

import manifest


@pytest.fixture(scope="module")
def golden():
    return json.loads(manifest.MANIFEST.read_text())


def test_manifest_lists_the_commands(golden):
    assert golden["rewrite"] == manifest.REWRITE
    assert {name: c["argv"] for name, c in golden["commands"].items()} == manifest.COMMANDS


def test_exit_codes_and_files(golden, manifest_runs):
    for name, run in manifest_runs.items():
        expected = golden["commands"][name]
        assert run["exit_code"] == expected["exit_code"], name
        assert sorted(p.name for p in run["dir"].iterdir()) == sorted(expected["sha256"]), name


def test_summary_metrics(golden, manifest_runs):
    mismatches = [f"{name}/{m}" for name, run in manifest_runs.items()
                  for m in manifest.metric_mismatches(golden["commands"][name]["metrics"],
                                                      manifest.summary_metrics(run["dir"]))]
    assert mismatches == []


def test_output_bytes(golden, manifest_runs):
    env = manifest.environment()
    if env != golden["environment"]:
        pytest.skip(f"byte check skipped: this environment {env} is not the "
                    f"manifest's {golden['environment']}; the summary metrics "
                    f"were compared to {manifest.REL_TOL:g} relative instead")
    assert manifest.moved(golden, manifest_runs) == [], \
        f"rewrite with `{manifest.REWRITE}` if this is intended"


def test_check_lists_moved_files_without_rewriting(golden, manifest_runs, tmp_path,
                                                   monkeypatch, capsys):
    # `manifest.py --check` on a copy of one command's outputs: exit 0 while
    # they match (in the recorded environment), exit 1 naming the file once
    # one byte moved; the manifest is left as it is either way
    name = "track-nonlinear-20s"
    runs = {name: dict(manifest_runs[name], dir=tmp_path / name)}
    shutil.copytree(manifest_runs[name]["dir"], tmp_path / name)
    monkeypatch.setattr(manifest, "run_commands", lambda root: runs)
    before = manifest.MANIFEST.read_bytes()
    if manifest.environment() == golden["environment"]:
        assert manifest.main(["--check"]) == 0
        assert capsys.readouterr().out.strip() == "no output moved"
    csv = tmp_path / name / "track_telemetry.csv"
    csv.write_bytes(csv.read_bytes() + b"\n")
    assert manifest.main(["--check"]) == 1
    assert f"{name}/track_telemetry.csv" in capsys.readouterr().out.splitlines()
    assert manifest.MANIFEST.read_bytes() == before
