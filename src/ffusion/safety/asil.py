"""ASIL decomposition checking over a declared architecture graph.

Decomposition trades one stringent integrity requirement for two lighter
ones on independent elements. The validity rule is rank arithmetic:
QM=0, A=1, B=2, C=3, D=4, and a pairwise claim is valid when the part
ranks sum to at least the parent rank AND the parts are declared free of
common cause. The rank-sum predicate reproduces the standard pairwise
decomposition table (D into D+QM, C+A or B+B; C into C+QM or B+A; B into
B+QM or A+A; A into A+QM) together with every over-provisioned variant.
"""

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Tuple

from ..errors import GraphError, MissingInputError

ASIL_LEVELS = ("QM", "A", "B", "C", "D")
ASIL_RANK = {name: rank for rank, name in enumerate(ASIL_LEVELS)}

VALID = "VALID"
INVALID = "INVALID"


def asil_rank(level: str) -> int:
    if level not in ASIL_RANK:
        raise GraphError(f"unknown ASIL level {level!r}")
    return ASIL_RANK[level]


@dataclass(frozen=True)
class Claim:
    """parent decomposes into exactly two parts."""

    parent: str
    parts: Tuple[str, str]

    def __post_init__(self):
        if len(self.parts) != 2:
            raise GraphError(
                f"claim on {self.parent!r} must have exactly two parts")
        if self.parts[0] == self.parts[1]:
            raise GraphError(
                f"claim on {self.parent!r} repeats part {self.parts[0]!r}")
        if self.parent in self.parts:
            raise GraphError(f"claim on {self.parent!r} lists itself as a part")


@dataclass
class ArchGraph:
    """Elements with assigned ASILs, decomposition claims, independence."""

    elements: Dict[str, str] = field(default_factory=dict)
    claims: List[Claim] = field(default_factory=list)
    independence: FrozenSet[FrozenSet[str]] = frozenset()

    def __post_init__(self):
        for name, level in self.elements.items():
            asil_rank(level)
        known = set(self.elements)
        for claim in self.claims:
            for name in (claim.parent, *claim.parts):
                if name not in known:
                    raise GraphError(f"claim references unknown element {name!r}")
        for pair in self.independence:
            if len(pair) != 2:
                raise GraphError("independence declarations must be pairs")
            for name in pair:
                if name not in known:
                    raise GraphError(
                        f"independence references unknown element {name!r}")
        self._reject_cycles()

    def _reject_cycles(self):
        children = {name: set() for name in self.elements}
        for claim in self.claims:
            children[claim.parent].update(claim.parts)
        state = {}  # 1 = visiting, 2 = done

        def visit(name, trail):
            if state.get(name) == 1:
                raise GraphError(
                    "decomposition cycle: " + " -> ".join(trail + [name]))
            if state.get(name) == 2:
                return
            state[name] = 1
            for child in sorted(children[name]):
                visit(child, trail + [name])
            state[name] = 2

        for name in sorted(self.elements):
            visit(name, [])

    def declared_independent(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.independence


@dataclass(frozen=True)
class Verdict:
    """The outcome for one claim, parent -> parts."""

    parent: str
    parts: Tuple[str, ...]
    status: str
    reason: str


def rank_sum_valid(parent_level: str, part_levels: Tuple[str, str]) -> bool:
    """The decomposition arithmetic: part ranks must cover the parent."""
    return (asil_rank(part_levels[0]) + asil_rank(part_levels[1])
            >= asil_rank(parent_level))


def check_decomposition(graph: ArchGraph) -> List[Verdict]:
    """One verdict per claim, in declaration order."""
    verdicts = []
    for claim in graph.claims:
        parent_level = graph.elements[claim.parent]
        part_levels = tuple(graph.elements[p] for p in claim.parts)
        if not rank_sum_valid(parent_level, part_levels):
            shortfall = (asil_rank(parent_level)
                         - sum(asil_rank(v) for v in part_levels))
            verdicts.append(Verdict(claim.parent, claim.parts, INVALID, (
                f"rank shortfall: {part_levels[0]}+{part_levels[1]} covers "
                f"{sum(asil_rank(v) for v in part_levels)} of "
                f"{parent_level}={asil_rank(parent_level)} (short by {shortfall})")))
        elif not graph.declared_independent(*claim.parts):
            verdicts.append(Verdict(claim.parent, claim.parts, INVALID, (
                f"missing independence: {claim.parts[0]} and {claim.parts[1]} "
                "are not declared free of common cause")))
        else:
            verdicts.append(Verdict(claim.parent, claim.parts, VALID, (
                f"{part_levels[0]}+{part_levels[1]} covers {parent_level} "
                "and the parts are declared independent")))
    return verdicts


_ELEMENT_RE = re.compile(r"^(?P<name>\w+)\s*:\s*(?P<level>QM|A|B|C|D)$")
_CLAIM_RE = re.compile(
    r"^(?P<parent>\w+)\s*->\s*(?P<p1>\w+)\s*\+\s*(?P<p2>\w+)$")
_INDEP_RE = re.compile(
    r"^independent\s*:\s*(?P<a>\w+)\s*,\s*(?P<b>\w+)$")


def parse_arch_graph(text: str) -> ArchGraph:
    """Parse the architecture description language.

    Three line forms (blank lines and '#' comments ignored):
      name: ASIL                element with its assigned level
      parent -> part1 + part2   decomposition claim
      independent: a, b         freedom-from-common-cause declaration
    """
    elements: Dict[str, str] = {}
    claims: List[Claim] = []
    pairs = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _ELEMENT_RE.match(line)
        if match:
            name = match.group("name")
            if name in elements:
                raise GraphError(f"line {lineno}: duplicate element {name!r}")
            elements[name] = match.group("level")
            continue
        match = _CLAIM_RE.match(line)
        if match:
            claims.append(Claim(match.group("parent"),
                                (match.group("p1"), match.group("p2"))))
            continue
        match = _INDEP_RE.match(line)
        if match:
            a, b = match.group("a"), match.group("b")
            if a == b:
                raise GraphError(
                    f"line {lineno}: independence pair repeats {a!r}")
            pairs.add(frozenset((a, b)))
            continue
        raise GraphError(f"line {lineno}: cannot parse {raw.strip()!r}")
    return ArchGraph(elements=elements, claims=claims,
                     independence=frozenset(pairs))


def load_arch_graph(path) -> ArchGraph:
    if not Path(path).is_file():
        raise MissingInputError(f"architecture graph not found: {path}")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"architecture graph {path} is not UTF-8: {exc}") from exc
    return parse_arch_graph(text)
