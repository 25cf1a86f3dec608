"""The manifest commands still write what ``tests/golden/outputs.json`` records.

See ``tests/manifest.py`` for what the manifest holds and how to rewrite it.
"""

import json

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
    moved = [f"{name}/{file}" for name, run in manifest_runs.items()
             for file, digest in manifest.digests(run["dir"]).items()
             if golden["commands"][name]["sha256"].get(file) != digest]
    assert moved == [], f"rewrite with `{manifest.REWRITE}` if this is intended"
