import json
import re
from pathlib import Path

from sbdsim.config import parse_config, resolved_config_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_config_blocks_parse():
    # each JSON block is a config, and its resolved form reads back as itself
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) >= 2
    for block in blocks:
        resolved = resolved_config_dict(parse_config(json.loads(block)))
        assert resolved_config_dict(parse_config(resolved)) == resolved
