"""Request ladders of the canoninv benchmark.

A request is one ``canoninv`` command line.  ``build`` and ``oracle`` requests
name a group; ``verify`` requests name the saved system file of a group, made
by ``refgen.py``.  The seed of a run only shuffles the order of a workload's
requests: the program always receives the same set of command lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "ref"
REFERENCES = REF_DIR / "references.json"

GROUP_FLAGS = {
    "A3": ["--type", "A", "--rank", "3"],
    "A4": ["--type", "A", "--rank", "4"],
    "A5": ["--type", "A", "--rank", "5"],
    "B4": ["--type", "B", "--rank", "4"],
    "B5": ["--type", "B", "--rank", "5"],
    "B6": ["--type", "B", "--rank", "6"],
    "D4": ["--type", "D", "--rank", "4"],
    "D5": ["--type", "D", "--rank", "5"],
    "D6": ["--type", "D", "--rank", "6"],
    "H3": ["--type", "H3"],
    "F4": ["--type", "F4"],
    "I2(5)": ["--type", "I2", "--m", "5"],
    "I2(6)": ["--type", "I2", "--m", "6"],
    "I2(7)": ["--type", "I2", "--m", "7"],
    "I2(10)": ["--type", "I2", "--m", "10"],
    "I2(12)": ["--type", "I2", "--m", "12"],
}


@dataclass(frozen=True)
class Request:
    kind: str  # "build", "verify" or "oracle"
    group: str
    mode: str = "generic"

    @property
    def id(self) -> str:
        suffix = "" if self.mode == "generic" else f":{self.mode}"
        return f"{self.kind}:{self.group}{suffix}"

    def argv(self) -> list:
        if self.kind == "build":
            mode = [] if self.mode == "generic" else ["--mode", self.mode]
            return ["build", *GROUP_FLAGS[self.group], *mode, "--verify"]
        if self.kind == "verify":
            return ["verify", str(system_file(self.group))]
        if self.kind == "oracle":
            return ["oracle-compare", *GROUP_FLAGS[self.group]]
        raise ValueError(f"unknown request kind {self.kind!r}")


def system_file(group: str) -> Path:
    stem = group.replace("(", "-").replace(")", "")
    return REF_DIR / "systems" / f"{stem}.json"


def _builds(*groups):
    return [Request("build", g) for g in groups]


WORKLOADS = {
    # Closed-form seeds, no enumeration: nearly all time is transfer ->
    # apply_diff against a Delta of up to 720 terms over Q.
    "classical": _builds("B4", "B5", "B6", "D4", "D5", "D6")
    + [Request("build", "D4", "refined"), Request("build", "D6", "refined")]
    + [Request("verify", "B6"), Request("verify", "D6")],
    # A_n in n+1 coordinates; at A5 the symbolic Jacobian certificate
    # (_poly_det -> Polynomial.__mul__) dominates.
    "ambient": _builds("A3", "A4", "A5") + [Request("verify", "A5")],
    # Reynolds seeds (enumeration), Q(sqrt5) scalars and the float backend;
    # verify costs more than build here.
    "exceptional": _builds("H3", "F4", "I2(5)", "I2(10)", "I2(6)", "I2(7)", "I2(12)")
    + [Request("verify", g) for g in ("H3", "F4", "I2(10)")],
    # The PDE oracle: many small substitute_linear calls and repeated rref
    # ranks.  F4 is left out: its oracle takes minutes.
    "oracle": [Request("oracle", g) for g in ("B4", "D4", "H3", "I2(10)")],
}
