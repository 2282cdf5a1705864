"""README.md's examples run as written."""

import json
import re
from pathlib import Path

from ppmplan.experiment import ExperimentConfig

README = Path(__file__).parent.parent / "README.md"


def blocks(language: str) -> list[str]:
    """The body of each fenced block of `language` in README.md."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_python_blocks_run():
    codes = blocks("python")
    assert codes
    for code in codes:
        exec(compile(code, str(README), "exec"), {})


def test_experiment_config_block_is_a_config():
    [text] = blocks("json")
    data = json.loads(text)
    config = ExperimentConfig.from_dict(data)
    assert list(config.scenarios) == data["scenarios"]
