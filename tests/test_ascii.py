"""Source hygiene: the package source stays plain ASCII."""

from pathlib import Path

import vsp

SRC = Path(vsp.__file__).resolve().parent


def test_package_sources_are_ascii():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for lineno, line in enumerate(path.read_bytes().splitlines(), 1):
            assert line.isascii(), f"{path.name}:{lineno} has a non-ASCII character"
