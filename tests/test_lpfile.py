import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from conftest import cover_instances, lp_model, random_instance
from ppmplan import exact
from ppmplan.exact import _core, solve_exact
from ppmplan.lpfile import export_lp
from ppmplan.placement import build_cover_instance, make_instance, solution_from_counts
from ppmplan.provisioning import Provisioner, provision
from ppmplan.topology import generate_gabriel
from ppmplan.traffic import find_load_at_rejection, generate_demands

DATA = Path(__file__).parent / "data"


def sections(text: str) -> dict[str, list[str]]:
    """The body lines of each LP section, by section name."""
    out: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("\\"):
            continue
        if not line.startswith(" "):
            current = line
            out[current] = []
        else:
            out[current].append(line)
    return out


def read_model(text: str, n_groups: int):
    """(link indices of the cover rows, row matrix, right-hand sides, upper
    bounds) of an exported model, checking its fixed layout on the way."""
    sec = sections(text)
    assert list(sec) == ["Minimize", "Subject To", "Bounds", "Generals", "End"]
    names = [f"p{j}" for j in range(n_groups)]
    assert sec["Minimize"] == [" obj: " + " + ".join(names)]
    assert sec["Generals"] == [" " + " ".join(names)]
    links, rows, rhs = [], np.zeros((len(sec["Subject To"]), n_groups)), []
    for r, line in enumerate(sec["Subject To"]):
        m = re.fullmatch(r" cover_(\d+): (p\d+(?: \+ p\d+)*) >= (\d+)", line)
        assert m, line
        links.append(int(m.group(1)))
        for term in m.group(2).split(" + "):
            rows[r, int(term[1:])] += 1
        rhs.append(int(m.group(3)))
    ub = []
    for j, line in enumerate(sec["Bounds"]):
        m = re.fullmatch(rf" 0 <= p{j} <= (\d+)", line)
        assert m, line
        ub.append(int(m.group(1)))
    assert len(ub) == n_groups
    return links, rows, np.array(rhs), np.array(ub)


@pytest.fixture
def lp_models(monkeypatch):
    """The model arrays (`lp_model`) of every root LP solve_exact makes."""
    seen = []
    real = exact.linprog

    def spy(lp):
        model = lp_model(lp)
        assert np.array_equal(model.cost, np.ones(lp.num_col_))
        seen.append(model)
        return real(lp)

    monkeypatch.setattr(exact, "linprog", spy)
    return seen


def assert_export_is_the_lp(inst, lp_models, path):
    """The export of `inst` states the root LP that solve_exact solves on it."""
    lp_models.clear()
    solve_exact(inst)
    [model] = lp_models
    export_lp(inst, path)
    links, rows, rhs, ub = read_model(path.read_text(), len(inst.groups))
    assert links == np.flatnonzero(inst.requirement).tolist()
    # solve_exact states each cover row as -row @ p <= -req
    assert np.array_equal(rows, -model.A.toarray())
    assert np.array_equal(rhs, -model.row_upper)
    assert np.all(model.row_lower == -np.inf)
    assert np.array_equal(ub, model.col_upper) and np.all(model.col_lower == 0)


class TestSameModelAsSolveExact:
    def test_random_instances(self, lp_models, tmp_path):
        rng = np.random.default_rng(51)
        checked = 0
        for _ in range(150):
            inst = random_instance(rng, max_links=8, max_groups=8, max_count=3, max_gamma=3)
            if inst.max_hops > 1:  # solve_exact settles single-hop instances without an LP
                assert_export_is_the_lp(inst, lp_models, tmp_path / "m.lp")
                checked += 1
        assert checked >= 100, checked

    def test_gabriel30_transparent_set(self, lp_models, tmp_path):
        topo = generate_gabriel(30, seed=0)
        prov = Provisioner(topo, "transparent")
        for d in generate_demands(topo, 300, seed=0).demands:
            prov.serve(d)
        for gamma in (1, 2, 3):
            inst = build_cover_instance(prov.result(), topo, gamma)
            assert_export_is_the_lp(inst, lp_models, tmp_path / "m.lp")


def highs_solution(path: Path, n_groups: int) -> tuple[str, np.ndarray]:
    """(model status, optimal p by group index) of HiGHS reading the LP file
    at `path` and solving it. It goes through scipy's bundled HiGHS binding,
    which `solve_exact` runs too; its module path is private to scipy, and a
    scipy that moves it fails these tests rather than skipping them.

    HiGHS reports each integer column as a float within its
    mip_feasibility_tolerance of an integer (its objective too may be off an
    integer by a rounding step), so p is checked against that tolerance and
    then rounded."""
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("mip_rel_gap", 0.0)
    assert highs.readModel(str(path)) == _core.HighsStatus.kOk
    assert highs.run() == _core.HighsStatus.kOk
    status = highs.modelStatusToString(highs.getModelStatus())
    names = highs.getLp().col_names_
    assert sorted(names) == sorted(f"p{j}" for j in range(n_groups))
    values = np.zeros(n_groups)
    values[[int(name[1:]) for name in names]] = highs.getSolution().col_value
    _, tolerance = highs.getOptionValue("mip_feasibility_tolerance")
    p = np.rint(values)
    assert np.all(np.abs(values - p) <= tolerance), values
    return status, p.astype(np.int64)


def assert_highs_reads_the_optimum(inst, path) -> int:
    """HiGHS's optimum of the export of `inst` is a placement that meets
    every link's requirement with solve_exact's monitors."""
    export_lp(inst, path)
    sol = solve_exact(inst)
    assert sol.optimal
    status, p = highs_solution(path, len(inst.groups))
    assert status == ("Optimal" if inst.groups else "Empty")
    highs_sol = solution_from_counts(inst, p, optimal=True)  # raises on p out of bounds
    assert highs_sol.unsatisfied == inst.min_unsatisfied
    assert highs_sol.total_monitors == sol.total_monitors
    return sol.total_monitors


class TestHighsReadsTheExport:
    @pytest.mark.parametrize("seed, monitors", [(0, (18, 54)), (1, (18, 57)), (2, (18, 52))])
    def test_n14_readme_sets(self, n14, tmp_path, seed, monitors):
        # the transparent set at the README config's 1% rejection point
        _, lset = find_load_at_rejection(n14, 0.01, seed)
        assert tuple(assert_highs_reads_the_optimum(build_cover_instance(lset, n14, gamma),
                                                    tmp_path / "m.lp")
                     for gamma in (1, 3)) == monitors

    @pytest.mark.parametrize("seed", [0, 1])
    def test_j14_sets(self, j14, tmp_path, seed):
        _, lset = find_load_at_rejection(j14, 0.01, seed)
        for gamma in (1, 2, 3):
            assert_highs_reads_the_optimum(build_cover_instance(lset, j14, gamma),
                                           tmp_path / "m.lp")

    def test_gabriel30_transparent_set(self, tmp_path):
        topo = generate_gabriel(30, seed=0)
        lset = provision(topo, generate_demands(topo, 300, seed=0), "transparent")
        for gamma in (1, 2, 3):
            assert_highs_reads_the_optimum(build_cover_instance(lset, topo, gamma),
                                           tmp_path / "m.lp")

    @settings(max_examples=100, deadline=None)
    @given(cover_instances())
    # the empty export (an objective with no term and no Generals section)
    # reads as an empty model with optimum 0
    @example(make_instance(["e1"], [], gamma=3))
    def test_drawn_instances(self, inst):
        with tempfile.TemporaryDirectory() as tmp:
            assert_highs_reads_the_optimum(inst, Path(tmp) / "m.lp")

    def test_instance_without_groups(self, tmp_path):
        # no route gives no column, so the export has no Generals section,
        # and HiGHS reads it as the empty model
        inst = make_instance(["e1"], [], gamma=3)
        path = tmp_path / "m.lp"
        export_lp(inst, path)
        assert "Generals" not in path.read_text()
        highs = _core._Highs()
        highs.setOptionValue("output_flag", False)
        assert highs.readModel(str(path)) == _core.HighsStatus.kOk
        assert (highs.getLp().num_col_, highs.getLp().num_row_) == (0, 0)
        assert highs.run() == _core.HighsStatus.kOk
        assert highs.getModelStatus() == _core.HighsModelStatus.kModelEmpty


def test_structure_two_links(tmp_path):
    inst = make_instance(["e1", "e2"],
                         [(("e1", "e2"), 2), (("e2",), 1)], gamma=1)
    path = tmp_path / "model.lp"
    export_lp(inst, path)
    text = path.read_text()
    assert text.count("\n cover_") == 2  # one coverage constraint per covered link
    assert " 0 <= p0 <= 2" in text
    assert " 0 <= p1 <= 1" in text
    assert "\\ p0 : route e1|e2 (multiplicity 2)" in text
    assert "\\ cover_1 : link e2" in text
    assert "Generals\n p0 p1\nEnd\n" in text
    assert text.index("Minimize") < text.index("Subject To") < text.index("Bounds")


def test_objective_terms(tmp_path):
    inst = make_instance(["e1", "e2"], [(("e1", "e2"), 1), (("e1",), 3)], gamma=2)
    path = tmp_path / "m.lp"
    export_lp(inst, path)
    lines = path.read_text().splitlines()
    obj = next(l for l in lines if l.startswith(" obj:"))
    assert obj == " obj: p0 + p1"
    # e2 has one lightpath, so its requirement is min(gamma, 1) = 1
    assert [l for l in lines if l.startswith(" cover_")] == \
        [" cover_0: p0 + p1 >= 2", " cover_1: p0 >= 1"]


def test_no_x_variable_and_no_row_for_an_uncovered_link(tmp_path):
    inst = make_instance(["e0", "e1", "e2"], [(("e2", "e0"), 2)], gamma=3)
    path = tmp_path / "m.lp"
    export_lp(inst, path)
    text = path.read_text()
    assert not re.search(r"\bx\d", text)
    assert "alpha" not in text and "omitted" not in text
    links, _, rhs, _ = read_model(text, 1)
    assert (links, rhs.tolist()) == ([0, 2], [2, 2])
    assert "link e1" not in text


def test_unwritable_path(tmp_path):
    inst = make_instance(["e1"], [(("e1",), 1)], gamma=1)
    with pytest.raises(OSError):
        export_lp(inst, tmp_path / "missing_dir" / "m.lp")


def test_golden_n14_derived(tmp_path, n14):
    """Byte-determinism of the export on a provisioning-derived instance.

    Regenerate tests/data/n14_gamma1_seed1.lp if the provisioning policy or
    the exported model is intentionally changed. It was last regenerated
    when the export became `solve_exact`'s model (min sum p with one `>=`
    row per covered link), in place of the weighted model with x columns
    and alpha.
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
