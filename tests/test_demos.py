"""Every demo script runs to completion and prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout; a change here is a change in what the demo shows.
STDOUT_SHA256 = {
    "build_and_validate.py": "e0880ad64408e450dccd788d05c5f486ed65b3d9e6c7eaad5b8f84ade79a7c14",
    "closedness_profiles.py": "d489245337ad1cb7add53a578cfeffce9e22514d32054d72a5ab90c577258194",
    "counterexample_hunt.py": "3e3c89ea1b5427d68426760932d7f6f2eae01de37b602071e01608a73d32c4fc",
    "fundamental_transfer.py": "fd4fad9040e6c705fdc44f360e2d3127c4b2f3f3408c7a1a8f4fd17c88fd2e4c",
    "ideal_landscape.py": "21983c9aaccbf230734d890a23d6fe8091eda5cb5e7b9aac2bde7e6dd7792cd3",
    "residue_sweeps.py": "8845b023315871ae9c7ab15324d5c9c568fb30c1978d077989c323e61a5a9150",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_prints_pinned_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo]
