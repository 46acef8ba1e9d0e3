"""The front end's output is pinned byte for byte.

``repro tokens`` over each example must print what
``tests/golden/tokens/<example>.tokens`` holds, and ``repro check`` over
a seeded set of broken copies of the examples (truncations, and
insertions of hostile fragments such as ``)`` or 200 ``(``) must print
the error lines in ``tests/golden/tokens/check_errors.txt``.  Each runs
in-process through :func:`repro.cli.main`, so a change to how tokens,
spans or syntax errors are made shows here as a diff, independently of
the lexer's own unit tests.

Re-pin on purpose only, by running this module as a script from the
repository root (``PYTHONPATH=src python
tests/integration/test_front_end_goldens.py``); it rewrites the golden
files from the current code.
"""

import io
import random
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent.parent
EXAMPLES = ROOT / "examples" / "ent"
GOLDEN = ROOT / "tests" / "golden" / "tokens"
NAMES = sorted(path.name for path in EXAMPLES.glob("*.ent"))

#: Fragments inserted at random offsets of an example.
FRAGMENTS = (")", "(" * 200, "{" * 130, "}", ";", '"', '"\\q"', "/*",
             "//", "#", "@", "mode<", "1.", "2e", "3.5e+2", "9" * 4400,
             "class", "snapshot", "\r\n", "\t", "$x", "été",
             "==", "_", "mcase<", "'")
#: Seeded truncations, and seeded insertions, per example; then each
#: fragment once more at a seeded offset.
PER_KIND = 12


def cases(name, source):
    """``(label, source)`` for the seeded broken copies of one example."""
    rng = random.Random(zlib.crc32(name.encode()))
    out = []
    for _ in range(PER_KIND):
        cut = rng.randrange(len(source))
        out.append((f"truncate {cut}", source[:cut]))
    draws = [rng.randrange(len(FRAGMENTS)) for _ in range(PER_KIND)]
    for index in draws + list(range(len(FRAGMENTS))):
        at = rng.randrange(len(source) + 1)
        out.append((f"insert {index} at {at}",
                    source[:at] + FRAGMENTS[index] + source[at:]))
    return out


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def tokens_output(name):
    path = EXAMPLES / name
    code, out, err = run_cli(["tokens", str(path)])
    assert code == 0 and err == ""
    return out.replace(str(path), f"examples/ent/{name}")


def check_lines(tmp_path):
    """One line per broken copy: its label, exit status and the single
    line ``repro check`` printed, with the path as ``<file>``."""
    lines = []
    for name in NAMES:
        source = (EXAMPLES / name).read_text()
        for label, broken in cases(name, source):
            path = tmp_path / name
            path.write_text(broken, newline="")
            code, out, err = run_cli(["check", str(path)])
            text = (out + err).replace(str(path), "<file>")
            assert text.count("\n") == 1, (name, label, text)
            lines.append(f"{name} {label}: {code} {text}")
    return "".join(lines)


@pytest.mark.parametrize("name", NAMES)
def test_tokens_match_golden(name):
    expected = (GOLDEN / f"{name[:-4]}.tokens").read_text()
    assert tokens_output(name) == expected


def test_check_errors_match_golden(tmp_path):
    expected = (GOLDEN / "check_errors.txt").read_text()
    assert check_lines(tmp_path) == expected


def test_golden_errors_cover_the_syntax_errors():
    text = (GOLDEN / "check_errors.txt").read_text()
    for message in ("expected", "unexpected character",
                    "unterminated string literal", "invalid escape",
                    "unterminated block comment", "nesting deeper than",
                    "integer literal too large"):
        assert message in text, message


if __name__ == "__main__":  # re-pin: see the module docstring
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        (GOLDEN / f"{name[:-4]}.tokens").write_text(tokens_output(name))
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "check_errors.txt").write_text(check_lines(Path(tmp)))
