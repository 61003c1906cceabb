"""Golden outputs of the README `berk` commands, compared byte for byte.

Each command runs in-process through `berkdyn.cli.main`; its stdout must
equal the file of the same name in `tests/golden/`.  The `seconds` column of
`examples run-all` is wall time, so it is masked on both sides.
"""

import re
from pathlib import Path

import pytest

from berkdyn.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "image": [
        "image", "--backend", "padic:p=3", "--map", "z^2",
        "--point", '{"t":"II","c":"0","logr":"1"}',
    ],
    "preimages": [
        "preimages", "--backend", "padic:p=2", "--map", "(z^2 - z^4)/2",
        "--point", '{"t":"II","c":"1","logr":"1/2"}',
    ],
    "equilibrium": [
        "equilibrium", "--backend", "padic:p=3", "--map", "(z^5 - 243)/z^2",
        "--iters", "4", "--partition", "residue:depth=1",
    ],
    "detect-pgr": ["detect-pgr", "--backend", "padic:p=3", "--map", "z^2+1"],
    "entropy-bounds": ["entropy-bounds", "--backend", "padic:p=3", "--map", "z^2+1"],
    "skeleton": [
        "skeleton", "--example", "R1",
        "--report", "entropies,invariant-set,cross-validate",
    ],
    "shift": ["shift", "--p", "2", "--depth", "4", "--check-against-solver"],
    "examples": ["examples", "run-all"],
}

_SECONDS = re.compile(r"  \d+\.\d\d$", re.M)


def mask_seconds(text):
    return _SECONDS.sub("  <seconds>", text)


def run_command(capsys, name):
    """Exit code and stdout of one README command, seconds masked."""
    code = main(list(COMMANDS[name]))
    out = capsys.readouterr().out
    return code, mask_seconds(out) if name == "examples" else out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_matches_golden(capsys, name, monkeypatch):
    monkeypatch.delenv("BERK_PRECISION", raising=False)
    code, out = run_command(capsys, name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()
