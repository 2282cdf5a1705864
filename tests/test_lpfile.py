from pathlib import Path

import pytest

from ppmplan.lpfile import export_lp
from ppmplan.placement import build_cover_instance, make_instance
from ppmplan.provisioning import provision
from ppmplan.traffic import generate_demands

DATA = Path(__file__).parent / "data"


def test_structure_two_links(tmp_path):
    inst = make_instance(["e1", "e2"],
                         [(("e1", "e2"), 2), (("e2",), 1)], gamma=1)
    path = tmp_path / "model.lp"
    export_lp(inst, path)
    text = path.read_text()
    assert text.count("cover_") == 2  # one coverage constraint per link
    assert " 0 <= p0 <= 2" in text
    assert " 0 <= p1 <= 1" in text
    assert " 0 <= x0 <= 1" in text
    assert "Generals" in text and "End" in text
    # dropped affine constant documented in the header
    assert f"= {inst.alpha * 1 * 2} omitted" in text
    assert text.index("Minimize") < text.index("Subject To") < text.index("Bounds")


def test_objective_terms(tmp_path):
    inst = make_instance(["e1"], [(("e1",), 3)], gamma=2)
    assert inst.alpha == 2  # max hops + 1
    path = tmp_path / "m.lp"
    export_lp(inst, path)
    lines = path.read_text().splitlines()
    obj = next(l for l in lines if l.startswith(" obj:"))
    assert obj == " obj: p0 - 2 x0"
    cover = next(l for l in lines if l.startswith(" cover_0:"))
    assert cover == " cover_0: x0 - p0 <= 0"


def test_unwritable_path(tmp_path):
    inst = make_instance(["e1"], [(("e1",), 1)], gamma=1)
    with pytest.raises(OSError):
        export_lp(inst, tmp_path / "missing_dir" / "m.lp")


def test_golden_n14_derived(tmp_path, n14):
    """Byte-determinism of the export on a provisioning-derived instance.

    Regenerate tests/data/n14_gamma1_seed1.lp if the provisioning policy is
    intentionally changed.
    """
    lset = provision(n14, generate_demands(n14, 50, seed=1), "transparent")
    inst = build_cover_instance(lset, n14, gamma=1)
    first = tmp_path / "a.lp"
    second = tmp_path / "b.lp"
    export_lp(inst, first)
    export_lp(inst, second)
    assert first.read_bytes() == second.read_bytes()
    golden = (DATA / "n14_gamma1_seed1.lp").read_bytes()
    assert first.read_bytes() == golden
