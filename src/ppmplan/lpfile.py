"""Textual LP-format export of the covering model for external MIP solvers.

The affine objective alpha * sum_e (gamma - x_e) + sum_l p_l is written
without its constant term alpha * gamma * |links| (dropped constants do not
change the argmin), i.e. as minimize sum_l p_l - alpha * sum_e x_e; the
header comment records the omitted constant. Output is byte-deterministic
for a given instance.
"""

from __future__ import annotations

from pathlib import Path

from .placement import CoverInstance, index_lists


def export_lp(instance: CoverInstance, path: str | Path) -> None:
    """Write the integer covering model for `instance` in LP file format."""
    alpha, gamma = instance.alpha, instance.gamma
    lines: list[str] = []
    constant = alpha * gamma * len(instance.links)
    lines.append("\\ monitor-cover integer model")
    lines.append("\\ objective: minimize alpha*sum_e(gamma - x_e) + sum_l p_l")
    lines.append(f"\\ constant term alpha*gamma*|links| = {constant} omitted;")
    lines.append("\\ written as: minimize sum_l p_l - alpha*sum_e x_e")
    lines.append(f"\\ alpha = {alpha}, gamma = {gamma}, "
                 f"links = {len(instance.links)}, groups = {len(instance.groups)}")
    for j, g in enumerate(instance.groups):
        lines.append(f"\\ p{j} : route {g.key} (multiplicity {g.count})")
    for i, e in enumerate(instance.links):
        lines.append(f"\\ x{i} : link {e}")
    lines.append("Minimize")
    obj = " + ".join(f"p{j}" for j in range(len(instance.groups)))
    for i in range(len(instance.links)):
        obj += f" - {alpha} x{i}"
    lines.append(" obj: " + obj.lstrip())
    lines.append("Subject To")
    for i, covering in enumerate(index_lists(instance.delta_rows)):
        lhs = f"x{i}" + "".join(f" - p{j}" for j in covering)
        lines.append(f" cover_{i}: {lhs} <= 0")
    lines.append("Bounds")
    for j, g in enumerate(instance.groups):
        lines.append(f" 0 <= p{j} <= {g.count}")
    for i in range(len(instance.links)):
        lines.append(f" 0 <= x{i} <= {gamma}")
    lines.append("Generals")
    names = [f"p{j}" for j in range(len(instance.groups))]
    names += [f"x{i}" for i in range(len(instance.links))]
    lines.append(" " + " ".join(names))
    lines.append("End")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
