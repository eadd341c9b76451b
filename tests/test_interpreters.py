"""The pinned outputs match on every other Python interpreter on PATH.

`tests/test_pinned_outputs.py` runs as a plain script on the standard
library alone; this test runs it under each `python3.X` found on PATH
(X >= 10, the project's floor) whose version differs from this one's,
one at a time, with evotropy imported from `src`.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SCRIPT = TESTS / "test_pinned_outputs.py"
SRC = TESTS.parent / "src"

_NAME = re.compile(r"python3\.([0-9]+)")


def _environment() -> dict[str, str]:
    environment = dict(os.environ, PYTHONPATH=str(SRC))
    pyenv = shutil.which("pyenv")
    if pyenv:
        # a pyenv shim runs only the versions pyenv selects; select them all
        listed = subprocess.run(
            [pyenv, "versions", "--bare"], capture_output=True, text=True, timeout=60
        )
        environment["PYENV_VERSION"] = ":".join(listed.stdout.split())
    return environment


def _other_interpreters(environment) -> dict[int, str]:
    """{minor version: path} of the first python3.X on PATH that starts,
    for each X >= 10 but this interpreter's."""
    found: dict[int, str] = {}
    for directory in os.get_exec_path(environment):
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            continue
        for name in names:
            match = _NAME.fullmatch(name)
            minor = int(match.group(1)) if match else 0
            if minor < 10 or minor == sys.version_info.minor or minor in found:
                continue
            path = os.path.join(directory, name)
            started = subprocess.run(
                [path, "-c", "import sys; print(sys.version_info[1])"],
                env=environment,
                capture_output=True,
                text=True,
                timeout=60,
            )
            if started.returncode == 0 and started.stdout.strip() == str(minor):
                found[minor] = path
    return found


def test_pinned_outputs_match_on_every_other_interpreter():
    environment = _environment()
    interpreters = _other_interpreters(environment)
    if not interpreters:
        pytest.skip("no other python3.X on PATH")
    failures = []
    for minor, path in sorted(interpreters.items()):
        result = subprocess.run(
            [path, "-X", "dev", "-W", "error", str(SCRIPT)],
            env=environment,
            capture_output=True,
            text=True,
            timeout=600,
        )
        if result.returncode != 0:
            failures.append(f"3.{minor} ({path}):\n{result.stdout}{result.stderr}")
    assert not failures, "\n".join(failures)
