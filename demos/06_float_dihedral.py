"""Dihedral groups outside the exact fields: the float backend.

I2(7) needs cos(pi/7), which lives in no supported exact field, so the group
is realized with float matrices and verification switches to a documented
tolerance on the unit-normalized system (default 1e-8).  Exact groups are
never verified this way.
"""

from canoninv import ReflectionGroup, build_root_system, canonical_system, verify_canonical

rs = build_root_system("I2", 2, m=7)
group = ReflectionGroup(rs)
print("field:", rs.field.name, "| positive roots:", len(rs.positive_roots),
      "| group order:", group.order)

system = canonical_system(group)
for i, e in enumerate(system.entries, start=1):
    print(f"f_{i} (degree {e.degree}):", e.polynomial)

report = verify_canonical(system, group)
print("verification tolerance:", report.tolerance)
print("verified:", report.passed)
