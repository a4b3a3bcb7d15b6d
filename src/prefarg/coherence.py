"""Consistent views of a stratified base, tied back to extensions.

A base with contradictions supports several coherent readings: the
maximal consistent subsets, which ignore strata, and among them the
preferred subbases, which leave out no belief at stratum k consistent
with the core and the beliefs they keep from strata 1..k (Brewka 1989).
Both come from one walk that splits the core's models belief by belief,
starting from the support walk's front end (arguments._belief_masks):
a finished node is maximal when no model of the beliefs it keeps
satisfies one more, and preferred when that held as well at the end of
every stratum. They live here, together with the cross-checks
connecting them to the extension machinery built on undercut and
certainty preference: subbase arguments against stable extensions, the
support of the unattacked class against the common core of all
preferred subbases, and the flat-base equivalence between the two
pictures. That one reuses the universe's undercut defeats under no
preference: collapsing the strata moves only belief references and
levels, never a support or a conclusion, and nothing reads levels
without a preference. Past the walks, subbases and supports meet as
masks over belief positions: an argument belongs to a subbase when its
support mask has no bit outside the subbase's.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable

from .arguments import DEFAULT_CAP, Argument, ArgumentUniverse, _belief_masks
from .formulas import render
from .framework import Framework, build_framework
from .kb import BeliefRef, StratifiedKB
from .semantics import class_cr_pref, grounded_extension, stable_extensions


@dataclass(frozen=True)
class Subbase:
    """A selection of beliefs, kept as sorted references into the base."""

    refs: tuple[BeliefRef, ...]


def _subbase_lists(kb: StratifiedKB, cap: int) -> tuple[list[Subbase], list[Subbase]]:
    """The maximal consistent subsets, and the preferred subbases among them.

    Every consistent subset lies inside the beliefs one model of the core
    satisfies (its signature), so the maximal consistent subsets are the
    maximal signatures. One depth-first walk splits the core's models
    belief by belief: a node at belief i holds combo, the beliefs below i
    it keeps, own, the core models whose signature below i is exactly
    combo, and conj, the models of the core and combo. conj also holds
    every model whose signature strictly extends combo, so a finished node
    is maximal iff own == conj, and preferred iff that held as well at the
    end of every stratum (Brewka 1989). Only nonempty own sets are walked,
    one per distinct signature prefix. The branch keeping belief i is
    walked first, which lists any antichain in ascending order, so both
    lists come out sorted.
    """
    refs, _, core_mask, masks = _belief_masks(kb, (), cap)
    n = len(refs)
    closes = [i + 1 == n or refs[i + 1].stratum != refs[i].stratum for i in range(n)]
    maximal, preferred = [], []
    pending = [(0, (), core_mask, core_mask, True)] if core_mask else []
    while pending:
        i, combo, own, conj, ok = pending.pop()
        if i == n:
            if own == conj:
                subbase = Subbase(tuple(refs[j] for j in combo))
                maximal.append(subbase)
                if ok:
                    preferred.append(subbase)
            continue
        inc = own & masks[i]
        for c, o, k in ((combo, own ^ inc, conj), (combo + (i,), inc, conj & masks[i])):
            if o:
                pending.append((i + 1, c, o, k, ok and (not closes[i] or o == k)))
    return maximal, preferred


def incl_subbases(kb: StratifiedKB, cap: int = DEFAULT_CAP) -> list[Subbase]:
    """All preferred subbases, prefix-maximal consistent stratum by stratum.

    They are the maximal consistent subsets that leave out no belief at
    stratum k consistent with the core and the beliefs they keep from
    strata 1..k: the walk's maximal nodes on which own == conj held at
    the end of every stratum. A call on its own pays for the walk that
    finds both lists.
    """
    return _subbase_lists(kb, cap)[1]


def max_consistent_subbases(kb: StratifiedKB, cap: int = DEFAULT_CAP) -> list[Subbase]:
    """Maximal selections consistent with the core, stratification ignored."""
    return _subbase_lists(kb, cap)[0]


def _position_mask(kb: StratifiedKB, refs: Iterable[BeliefRef]) -> int:
    """The refs as a mask over the positions of kb.belief_refs(); a ref
    the base does not hold sets no bit."""
    keep = set(refs)
    return sum(1 << i for i, r in enumerate(kb.belief_refs()) if r in keep)


def _refs_at(kb: StratifiedKB, mask: int) -> tuple[BeliefRef, ...]:
    """The refs at the set bits of a belief-position mask, in base order."""
    return tuple(r for i, r in enumerate(kb.belief_refs()) if mask >> i & 1)


def arg_of(
    universe: ArgumentUniverse, subbase: Subbase | Iterable[BeliefRef]
) -> tuple[Argument, ...]:
    """The universe members whose support lies inside the subbase: those
    whose support mask has no bit outside the subbase's mask."""
    refs = subbase.refs if isinstance(subbase, Subbase) else subbase
    outside = ~_position_mask(universe.kb, refs)
    return tuple(a for a, s in zip(universe.arguments, universe.support_masks) if not s & outside)


@dataclass(frozen=True)
class ClauseResult:
    """One checked clause. A failing clause's counterexample maps part
    names to library values: belief refs as a tuple (subbase,
    references), argument ids as a frozenset (arguments, extension,
    class), or a set of such frozensets (stable_only, subbase_only)."""

    name: str
    status: str  # "pass" | "fail" | "info"
    detail: str = ""
    counterexample: dict | None = None


@dataclass(frozen=True)
class CorrespondenceReport:
    """The checked clauses, with the preferred subbases and their intersection."""

    clauses: tuple[ClauseResult, ...]
    subbases: tuple[Subbase, ...]
    intersection: frozenset[BeliefRef]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.clauses)


def _show_refs(kb: StratifiedKB, mask: int) -> str:
    return "{" + ", ".join(render(kb.resolve(r)) for r in _refs_at(kb, mask)) + "}"


def _clause(name: str, counterexample: dict | None, detail: str) -> ClauseResult:
    """A clause that fails exactly when it has a counterexample."""
    return ClauseResult(name, "fail" if counterexample else "pass", detail, counterexample)


def check_correspondence(
    universe: ArgumentUniverse, cap: int = DEFAULT_CAP
) -> CorrespondenceReport:
    """Cross-check subbase selection against undercut/certainty extensions.

    Four clauses are verified, each a finite-universe verification: the
    argument-side statements quantify over the canonical universe, not
    over every derivable conclusion.

      subbase_arguments_are_stable   each preferred subbase induces a
                                     stable extension
      class_support_within_intersection  supports of never-attacked
                                     arguments sit in every subbase
      class_within_every_stable      never-attacked arguments belong to
                                     each stable extension
      flat_stable_equals_max_consistent  the same defeats under no
                                     preference (the collapsed base's
                                     framework) have as stable extensions
                                     exactly the argument sets of the
                                     maximal consistent subbases

    A failing clause's counterexample names, in order: the subbase's
    refs (a tuple) and its argument ids (a frozenset); the stray refs
    (a tuple); the extension and the class (frozensets of ids); the
    stable-only and subbase-only id sets (sets of frozensets).

    A final informational clause shows the grounded extension's support
    next to the subbase intersection without asserting anything. The
    base is the universe's own, and one subbase walk serves both the
    stratified clauses and the flat one: each maximal subbase's argument
    ids are gathered once, and the preferred subbases are among them.
    The undercut framework under certainty preference is built here.
    """
    kb = universe.kb
    maximal, subbases = _subbase_lists(kb, cap)
    common = functools.reduce(operator.and_, (_position_mask(kb, sb.refs) for sb in subbases))
    ids_of = {sb: frozenset(a.id for a in arg_of(universe, sb)) for sb in maximal}
    fw = build_framework(universe, defeat="undercut")
    stable = stable_extensions(fw, "weak", cap)
    flat_fw = Framework(fw.arguments, fw.defeat_targets_mask, None)
    flat_stable = {frozenset(e) for e in stable_extensions(flat_fw, "weak", cap)}
    flat_expected = set(ids_of.values())

    def support_of(ids: Iterable[str]) -> int:
        """The union of the named arguments' supports, as a belief-position mask."""
        return functools.reduce(
            operator.or_, (universe.support_masks[fw.position(i)] for i in ids), 0
        )

    class_ids = class_cr_pref(fw)
    stray = support_of(class_ids) & ~common
    grounded_ids, _ = grounded_extension(fw)
    clauses = (
        _clause(
            "subbase_arguments_are_stable",
            next(({"subbase": sb.refs, "arguments": ids_of[sb]}
                  for sb in subbases if ids_of[sb] not in stable), None),
            f"{len(subbases)} subbases against {len(stable)} stable extensions "
            "(finite-universe verification)",
        ),
        _clause(
            "class_support_within_intersection",
            {"references": _refs_at(kb, stray)} if stray else None,
            f"support of {len(class_ids)} unattacked arguments against "
            f"{common.bit_count()} common references",
        ),
        _clause(
            "class_within_every_stable",
            next(({"extension": ext, "class": class_ids}
                  for ext in stable if not class_ids <= ext), None),
            f"{len(class_ids)} unattacked arguments against {len(stable)} stable extensions",
        ),
        _clause(
            "flat_stable_equals_max_consistent",
            {"stable_only": flat_stable - flat_expected,
             "subbase_only": flat_expected - flat_stable}
            if flat_stable != flat_expected else None,
            f"{len(flat_stable)} stable extensions against "
            f"{len(flat_expected)} maximal consistent subbases",
        ),
        ClauseResult(
            "grounded_support_vs_intersection",
            "info",
            f"grounded support {_show_refs(kb, support_of(grounded_ids))}, "
            f"common references {_show_refs(kb, common)}",
        ),
    )
    return CorrespondenceReport(clauses, tuple(subbases), frozenset(_refs_at(kb, common)))
