import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sdpibounds

ROOT = Path(__file__).resolve().parents[1]


def test_no_tracked_file_is_gitignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    inside = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
        capture_output=True, text=True,
    )
    if inside.returncode != 0 or Path(inside.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout")
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-ci", "--exclude-standard"],
        capture_output=True, text=True, check=True,
    )
    assert listed.stdout == ""


def test_cli_import_loads_no_scipy():
    # The library needs numpy alone; scipy costs a CLI run about 0.3 s, and
    # mpmath only writes the tests' Gaussian reference table.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, sdpibounds.cli; print([m for m in ('scipy', 'mpmath') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_package_root_exports_the_readme_api():
    # The README's API list is the package root's __all__, name for name,
    # and a star import finds every name.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## API\n")[1]
    section = section.split("\n## ")[0]
    bullets = section[section.index("\n- "):]
    documented = re.findall(r"`(\w+)`", bullets)
    assert sorted(documented) == sorted(sdpibounds.__all__)
    namespace = {}
    exec("from sdpibounds import *", namespace)
    assert set(sdpibounds.__all__) <= namespace.keys()
