"""README.md's examples run as written."""

import json
import re
from pathlib import Path

from ppmplan.experiment import ExperimentConfig
from test_acceptance import COUNTS, PIPELINE

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


def test_fidelity_table_matches_the_pinned_record():
    lines = README.read_text(encoding="utf-8").splitlines()
    header = "| | " + " | ".join(PIPELINE["N14"][0]) + " | OTDR / Tr-O-1 |"
    assert header in lines
    rows = {}
    for line in lines:
        match = re.match(r"\| ([NJ]14) (pipeline|paper) \| (.*) \|$", line)
        if match:
            cells = [re.findall(r"[\d.]+", cell) for cell in match[3].split(" | ")]
            rows[match[1], match[2]] = [[float(v) for v in cell] for cell in cells]
    assert len(rows) == 4
    for network, (record, ratio) in PIPELINE.items():
        *pipeline, pipeline_ratio = rows[network, "pipeline"]
        assert [tuple(cell) for cell in pipeline] == list(record.values())
        assert pipeline_ratio == [ratio]
        counts = COUNTS[network]
        *paper, paper_ratio = rows[network, "paper"]
        assert list(record) == list(counts)
        assert paper == [[count] for count in counts.values()]
        assert paper_ratio == [round(counts["OTDR"] / counts["Tr-O-1"], 2)]
