"""Textual LP-format export of the covering model for external MIP solvers.

The file states the model `solve_exact` hands HiGHS: minimize the monitor
count sum_j p_j over integer p_j in [0, count_j], with one row
`cover_i: sum of the p_j whose route uses link i >= req_i` per link i whose
requirement req_i = min(gamma, max coverage_i) is positive, in link order.
A link that no route covers has requirement 0 and no row. Header comments
map each p to its route and each cover row to its link. Output is
byte-deterministic for a given instance.
"""

from __future__ import annotations

from pathlib import Path

from .placement import CoverInstance


def export_lp(instance: CoverInstance, path: str | Path) -> None:
    """Write `solve_exact`'s model of `instance` in LP file format."""
    req = instance.requirement.tolist()
    rows = [i for i, r in enumerate(req) if r > 0]
    covering = instance.link_groups
    names = [f"p{j}" for j in range(len(instance.groups))]
    lines = [
        "\\ monitor-cover integer model: minimize sum_j p_j subject to",
        "\\ sum_{j covers i} p_j >= req_i = min(gamma, max coverage_i) on every link i with req_i > 0",
        f"\\ gamma = {instance.gamma}, links = {len(instance.links)}, "
        f"groups = {len(instance.groups)}, cover rows = {len(rows)}",
    ]
    lines += [f"\\ p{j} : route {g.key} (multiplicity {g.count})"
              for j, g in enumerate(instance.groups)]
    lines += [f"\\ cover_{i} : link {instance.links[i]}" for i in rows]
    lines += ["Minimize", " obj: " + " + ".join(names), "Subject To"]
    lines += [f" cover_{i}: " + " + ".join(names[j] for j in covering[i]) + f" >= {req[i]}"
              for i in rows]
    lines.append("Bounds")
    lines += [f" 0 <= p{j} <= {g.count}" for j, g in enumerate(instance.groups)]
    if names:
        lines += ["Generals", " " + " ".join(names)]
    lines.append("End")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
