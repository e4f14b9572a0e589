"""The README's CLI examples that show output, run through cli.main."""

import pathlib
import shlex

import pytest

from starcycle import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(command line, expected output) for each `$ starcycle ...` line in a
    fenced block that is followed by output lines."""
    examples = []
    fenced = False
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
            current = None
        elif not fenced:
            continue
        elif line.startswith("$ starcycle "):
            current = [line[2:], []]
            examples.append(current)
        elif current is not None and current[0].endswith("\\"):
            current[0] = current[0][:-1] + line.strip()
        elif current is not None and line:
            current[1].append(line)
        else:
            current = None
    return [(cmd, "\n".join(out) + "\n") for cmd, out in examples if out]


EXAMPLES = readme_examples()


def test_readme_has_examples_with_output():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("cmd, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(cmd, expected, capsys):
    code = cli.main(shlex.split(cmd)[1:])
    assert capsys.readouterr().out == expected
    verdict = expected.splitlines()[0].rsplit(" ", 1)[1]
    assert code == {"PASS": 0, "FAIL": 1}[verdict]
