"""The README's module map and stated defaults match the package."""

import re
from pathlib import Path

from escher.config import RunConfig, emit_config

ROOT = Path(__file__).resolve().parent.parent


def test_layout_block_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE)
    modules = [path.name for path in (ROOT / "src" / "escher").glob("*.py")
               if path.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)


def test_defaults_sentence_matches_the_config():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Defaults: (.*?)\.\s", readme, flags=re.S).group(1)
    stated = dict(re.findall(r"`([\w.]+) = ([^`]+)`", sentence))
    emitted = dict(line.split(" = ", 1)
                   for line in emit_config(RunConfig()).splitlines())
    assert sorted(stated) == ["newton.max_iter", "newton.tol", "theta"]
    for key, value in stated.items():
        assert float(value) == float(emitted[key]), key
