"""The README's code runs and prints the figures it quotes."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The fenced Python block under the README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_quoted_figures(capsys):
    # each print whose comment quotes "~x" prints a value that rounds to x
    # at x's digits: 0.99974 and 0.46114 at the time of writing
    code = library_example()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    quoted = {i: m.group(1) for i, line in enumerate(prints) if (m := re.search(r"# ~([0-9.]+)", line))}
    assert list(quoted.values()) == ["0.9997", "0.461"]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(prints)
    for i, figure in quoted.items():
        digits = len(figure.split(".")[1])
        assert f"{float(printed[i]):.{digits}f}" == figure, (prints[i], printed[i])
