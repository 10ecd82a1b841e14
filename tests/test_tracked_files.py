"""No tracked file matches .gitignore: build outputs and stale runs stay
out of the repository."""

import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None or git("rev-parse", "--is-inside-work-tree").returncode:
        pytest.skip("not a git work tree")
    listed = git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""
