"""Every demo script runs to completion and prints the same stdout bytes."""

import hashlib
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))

# sha256 of each demo's stdout; demo 03 prints its wall times to stderr
STDOUT_DIGESTS = {
    "01_compatibility.py": "b0224c0d1ab64b0679b65cb3fc3994f6d148f57d1c5cce6b910a0fdb2158f179",
    "02_finite_quiver.py": "7e49ef35aff2dbf52226d8ad84c884b67a672aa667f6ac93a420d74e93429e8f",
    "03_continuous_enumeration.py": "36395d28a651f2b31971c1f72368bc381f5a1336aefa45ff2a6742d6324e40bf",
    "04_projection_and_counting.py": "b94a84535a982e1eb736e835648ba73495362622b4c22e0ddb2c1c91b16793a8",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_DIGESTS) == [path.name for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[path.name]
