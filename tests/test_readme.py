"""The README's module map lists exactly the package's modules."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layout_block_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE)
    modules = [path.name for path in (ROOT / "src" / "escher").glob("*.py")
               if path.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)
