"""The README's Quick start runs as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_examples_run():
    blocks = re.findall(r"```pycon\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(
        blocks[0], {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, 10)
