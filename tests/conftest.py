import pytest

import manifest


@pytest.fixture(scope="session")
def manifest_runs(tmp_path_factory):
    """One run of each manifest command, shared by test_manifest.py and C12."""
    return manifest.run_commands(tmp_path_factory.mktemp("manifest"))
