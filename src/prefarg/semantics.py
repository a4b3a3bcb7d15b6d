"""Extension semantics over frameworks: acceptance classes and fixed points.

Two operators drive everything. f_step maps a set S to the arguments
whose every attacker is itself attacked by S (the arguments S defends);
g_step maps S to the arguments not attacked by S. Unattacked arguments
form the basic acceptance class. The grounded extension is the least
fixed point of f_step; complete extensions are the conflict-free fixed
points of f_step; stable extensions are the conflict-free fixed points
of g_step, equivalently the conflict-free sets attacking every outside
argument.

The grounded extension comes from the grounded labelling of Modgil and
Caminada, run in rounds on masks: round k labels IN exactly what the
k-th application of f_step from the empty set adds, so the rounds count
the applications that iteration makes, while the whole labelling costs
O(n + m) mask operations for n arguments and m attacks.

Conflict-freeness is checked against attack edges by default ("weak");
"strict" mode rules out defeat edges inside a set even when preference
would cancel them.

Sets travel as frozensets of argument ids at the public boundary and as
position bitmasks internally. Complete extensions come from one
depth-first search that starts at the grounded extension, propagates
what f_step forces and what it rules out, and branches only on
arguments left undecided; stable extensions are the complete ones that
g_step fixes. The search refuses to run past the cap (default 20
arguments); the grounded labelling is never capped.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from .arguments import DEFAULT_CAP, check_cap
from .framework import Framework, _bits, _transpose, strict_masks

MODES = ("weak", "strict")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _mask_of(fw: Framework, ids: Iterable[str]) -> int:
    m = 0
    for arg_id in ids:
        m |= 1 << fw.position(arg_id)
    return m


def _ids_of(fw: Framework, mask: int) -> frozenset[str]:
    ids = fw.ids
    return frozenset(ids[i] for i in _bits(mask))


def _ordered_ids(fw: Framework, mask: int) -> tuple[str, ...]:
    ids = fw.ids
    out = []
    while mask:
        j = mask.bit_length() - 1
        out.append(ids[j])
        mask ^= 1 << j
    return tuple(reversed(out))


# The operator kernels below walk set bits inline, lowest first, rather
# than through the _bits generator. f_step and g_step of a set depend
# only on the set it attacks, so their kernels, _defended and
# _not_attacked, take that attacked set as their only input: self_check
# calls them once per distinct attacked set in its pool, not once per
# subset. On the exhaustive pool it lists every subset's attacked set by
# doubling a list once per argument; _attacked_lookup serves the sampled
# pool and single sets.

def _attacked_by(fw: Framework, s: int) -> int:
    targets = fw.attack_targets_mask
    out = 0
    while s:
        low = s & -s
        out |= targets[low.bit_length() - 1]
        s ^= low
    return out


def _attacked_lookup(fw: Framework) -> Callable[[int], int]:
    """A function giving _attacked_by(fw, s) from one table row per byte of s.

    Row k maps each byte value b to the set attacked by the positions
    8k + i for the bits i of b, built as row[b] = row[b ^ low] | targets
    of low's position, where low is b's lowest bit. The last row only
    spans the positions left, so the table holds at most 256 masks per
    8 arguments.
    """
    targets = fw.attack_targets_mask
    rows = []
    for base in range(0, len(targets), 8):
        row = [0] * (1 << min(8, len(targets) - base))
        for b in range(1, len(row)):
            low = b & -b
            row[b] = row[b ^ low] | targets[base + low.bit_length() - 1]
        rows.append(row)

    def attacked(s: int) -> int:
        out = 0
        for row in rows:
            out |= row[s & 255]
            s >>= 8
        return out

    return attacked


def _defended(fw: Framework, attacked: int) -> int:
    """f_step of any set that attacks exactly attacked: the arguments it defends."""
    uncountered = ~attacked
    out = 0
    bit = 1
    for attackers in fw.attackers_mask:
        if not attackers & uncountered:
            out |= bit
        bit <<= 1
    return out


def _not_attacked(fw: Framework, attacked: int) -> int:
    """g_step of any set that attacks exactly attacked."""
    return ((1 << len(fw.arguments)) - 1) & ~attacked


def _unhit(targets: list[int]) -> int:
    """The positions that no mask of targets holds."""
    hit = 0
    for m in targets:
        hit |= m
    return ((1 << len(targets)) - 1) & ~hit


def _conflict_free_mask(fw: Framework, s: int, mode: str, attacked: int | None = None) -> bool:
    """Whether s is conflict-free in the mode.

    attacked, when given, is _attacked_by(fw, s); it follows attack
    edges, so only weak mode reads it.
    """
    if attacked is not None and mode == "weak":
        return not attacked & s
    targets = fw.defeat_targets_mask if mode == "strict" else fw.attack_targets_mask
    rest = s
    while rest:
        low = rest & -rest
        if targets[low.bit_length() - 1] & s:
            return False
        rest ^= low
    return True


def class_cr(fw: Framework) -> frozenset[str]:
    """Arguments with no defeater at all."""
    return _ids_of(fw, _unhit(fw.defeat_targets_mask))


def class_cr_pref(fw: Framework) -> frozenset[str]:
    """Arguments strictly preferred to every defeater, i.e. never attacked."""
    return _ids_of(fw, _unhit(fw.attack_targets_mask))


def conflict_free(fw: Framework, ids: Iterable[str], mode: str = "weak") -> bool:
    """No internal attack edge ("weak") or no internal defeat edge ("strict")."""
    _check_mode(mode)
    return _conflict_free_mask(fw, _mask_of(fw, ids), mode)


def f_step(fw: Framework, ids: Iterable[str]) -> frozenset[str]:
    """The arguments defended by the given set: every attacker is counterattacked."""
    return _ids_of(fw, _defended(fw, _attacked_by(fw, _mask_of(fw, ids))))


def g_step(fw: Framework, ids: Iterable[str]) -> frozenset[str]:
    """The arguments not attacked by the given set."""
    return _ids_of(fw, _not_attacked(fw, _attacked_by(fw, _mask_of(fw, ids))))


def grounded_extension(fw: Framework) -> tuple[frozenset[str], int]:
    """Least fixed point of f_step, and the f_step applications that reach it."""
    members, iterations = _grounded_labelling(fw)
    ids = fw.ids
    return frozenset(ids[i] for i in members), iterations


def _grounded_labelling(fw: Framework) -> tuple[list[int], int]:
    """Positions of the grounded extension, by the grounded labelling in rounds.

    The unattacked arguments form the first IN frontier. Each round ORs
    the frontier's attack targets, less those already OUT, into the
    newly OUT set. Each newly OUT argument is peeled once and its targets
    OR'd into a candidate set, less OUT; the next frontier is the
    candidates whose attacker mask lies within OUT. So frontier k is
    f_step^k(empty) less f_step^(k-1)(empty). Each argument goes OUT
    once, and a candidate test stands for an edge from a newly OUT
    argument, so the labelling costs O(n + m) mask operations and keeps
    no attacker counts. Set bits are peeled highest position first, one
    big-int temporary per bit fewer than lowest first, so the positions
    within a round come in no order that callers may rely on: they sort
    the positions or OR them.

    Also returns the number of f_step applications that iterating from
    the empty set performs, including the final one that confirms the
    fixed point: 1 + the number of non-empty frontiers.
    """
    targets = fw.attack_targets_mask
    attackers = fw.attackers_mask
    frontier = [i for i, m in enumerate(attackers) if not m]
    members: list[int] = []
    out = 0
    iterations = 1
    while frontier:
        iterations += 1
        members += frontier
        hit = 0
        for i in frontier:
            hit |= targets[i]
        hit &= ~out
        out |= hit
        # Only a target of a newly OUT argument can have just lost its last
        # attacker not OUT. No IN argument is one: its attackers all went
        # OUT before it went IN. An OUT one keeps an IN attacker.
        cand = 0
        while hit:
            k = hit.bit_length() - 1
            hit ^= 1 << k
            cand |= targets[k]
        live = ~out
        cand &= live
        frontier = []
        while cand:
            j = cand.bit_length() - 1
            cand ^= 1 << j
            if not attackers[j] & live:
                frontier.append(j)
    return members, iterations


def _propagate(fw: Framework, s: int, cand: int, clash: list[int]) -> tuple[int, int] | None:
    """Narrow one search node, or None when no complete extension lies in it.

    A complete extension E with S within E within S | cand contains
    f_step(S), since f_step is monotone, and lies within f_step(S | cand).
    So f_step(S) joins S, each new member dropping the candidates it
    clashes with, and the candidates outside f_step(S | cand) are dropped,
    until neither changes. Every round but the last takes at least one
    argument out of cand, so a node takes at most n + 1 rounds.
    """
    while True:
        grow = _defended(fw, _attacked_by(fw, s)) & ~s
        for i in _bits(grow):
            if not cand >> i & 1:
                return None
            s |= 1 << i
            cand &= ~clash[i]
        if grow:
            continue
        up = _defended(fw, _attacked_by(fw, s | cand))
        if s & ~up:
            return None
        if not cand & ~up:
            return s, cand
        cand &= up


def _fixed_points(fw: Framework, mode: str, cap: int) -> list[int]:
    """Complete extensions as masks, by size then bitmask.

    A depth-first search over nodes (S, cand): S is the set chosen IN and
    cand the undecided arguments, none of which clashes with S; a clash is
    an attack edge ("weak") or a defeat edge ("strict") in either
    direction. The root starts empty, so its propagation grows the
    grounded extension. A node with no candidates left is a complete
    extension; otherwise it branches on its lowest candidate, IN and then
    excluded, so every extension is emitted once.
    """
    _check_mode(mode)
    check_cap(fw.arguments, "arguments", cap)
    if mode == "strict":
        targets = fw.defeat_targets_mask
        sources = _transpose(targets, len(targets))
    else:
        targets, sources = fw.attack_targets_mask, fw.attackers_mask
    clash = [t | s | 1 << i for i, (t, s) in enumerate(zip(targets, sources))]
    out = []
    # A self-attacker is never conflict-free, so it never becomes a candidate.
    stack = [(0, sum(1 << i for i, t in enumerate(targets) if not t >> i & 1))]
    while stack:
        node = _propagate(fw, *stack.pop(), clash)
        if node is None:
            continue
        s, cand = node
        if not cand:
            out.append(s)
            continue
        low = cand & -cand
        stack.append((s, cand ^ low))
        stack.append((s | low, cand & ~clash[low.bit_length() - 1]))
    out.sort(key=lambda s: (s.bit_count(), s))
    return out


def complete_extensions(
    fw: Framework, mode: str = "weak", cap: int = DEFAULT_CAP
) -> list[frozenset[str]]:
    """Conflict-free fixed points of f_step, ordered by size then position bitmask.

    Found by a pruned search from the grounded extension; the cap bounds
    the argument count.
    """
    return [_ids_of(fw, s) for s in _fixed_points(fw, mode, cap)]


def stable_extensions(
    fw: Framework, mode: str = "weak", cap: int = DEFAULT_CAP
) -> list[frozenset[str]]:
    """Conflict-free fixed points of g_step, ordered by size then position bitmask.

    f_step is g_step applied twice, so every stable extension is complete:
    these are the complete extensions that g_step maps to themselves.
    """
    return [
        _ids_of(fw, s) for s in _fixed_points(fw, mode, cap)
        if _not_attacked(fw, _attacked_by(fw, s)) == s
    ]


def greatest_fixed_point(fw: Framework) -> frozenset[str]:
    """g_step applied to the grounded extension: the greatest fixed point of f_step."""
    grounded, _ = grounded_extension(fw)
    return g_step(fw, grounded)


@dataclass(frozen=True)
class ExtensionReport:
    """Everything evaluate() computes; id tuples follow framework order.

    unique_complete records whether the greatest fixed point is
    conflict-free in the weak sense. When it is, the grounded extension
    is the one and only complete extension; the converse can fail, since
    an odd attack cycle leaves a unique complete extension while the
    greatest fixed point still contains the cycle.
    """

    mode: str
    class_r: tuple[str, ...]
    class_r_pref: tuple[str, ...]
    grounded: tuple[str, ...]
    greatest_fixed_point: tuple[str, ...]
    complete: tuple[tuple[str, ...], ...]
    stable: tuple[tuple[str, ...], ...]
    unique_complete: bool
    iterations: int
    capped: bool


def evaluate(fw: Framework, mode: str = "weak", cap: int = DEFAULT_CAP) -> ExtensionReport:
    """Full semantic summary of a framework.

    When the framework has more arguments than the cap allows, the
    extension lists are left empty and the report is flagged as capped;
    the polynomial parts are still computed.
    """
    _check_mode(mode)
    members, iterations = _grounded_labelling(fw)
    members.sort()
    targets = fw.attack_targets_mask
    attacked = 0
    for i in members:
        attacked |= targets[i]
    gfp_mask = _not_attacked(fw, attacked)
    capped = len(fw.arguments) > cap
    # f_step is g_step applied twice, so every stable extension is also a
    # complete one: one search for complete extensions yields both lists.
    complete = [] if capped else _fixed_points(fw, mode, cap)
    stable = [s for s in complete if _not_attacked(fw, _attacked_by(fw, s)) == s]
    class_r = _ordered_ids(fw, _unhit(fw.defeat_targets_mask))
    return ExtensionReport(
        mode=mode,
        class_r=class_r,
        class_r_pref=class_r if targets is fw.defeat_targets_mask else _ordered_ids(
            fw, _unhit(targets)),
        grounded=tuple(fw.ids[i] for i in members),
        greatest_fixed_point=_ordered_ids(fw, gfp_mask),
        complete=tuple(_ordered_ids(fw, s) for s in complete),
        stable=tuple(_ordered_ids(fw, s) for s in stable),
        unique_complete=_conflict_free_mask(fw, gfp_mask, "weak"),
        iterations=iterations,
        capped=capped,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True)
class SelfCheckReport:
    """Outcome of the invariant suite, plus the f/g interchange tallies.

    The interchange identity f_step(S) == g_step(f_step(S)) is tallied
    as a diagnostic only: it fails for arbitrary S, and it even fails at
    fixed points of f_step (two mutually attacking arguments make the
    empty set such a fixed point, yet g_step of it is everything). It
    provably holds at fixed points of g_step, because f_step is g_step
    applied twice, and that variant is enforced as a real check.
    """

    results: tuple[CheckResult, ...]
    fgf_checked: int
    fgf_mismatches: int
    fgf_f_fixed_point_mismatches: int
    fgf_g_fixed_point_mismatches: int

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)


# self_check quantifies over every subset up to this many arguments and
# over a seeded random pool of SAMPLE_SIZE subsets above it.
MAX_EXHAUSTIVE = 12
SAMPLE_SIZE = 1024
SAMPLE_SEED = 0


def _subset_pool(n: int) -> list[int]:
    if n <= MAX_EXHAUSTIVE:
        return list(range(1 << n))
    rng = random.Random(SAMPLE_SEED)
    pool = {0, (1 << n) - 1}
    while len(pool) < SAMPLE_SIZE:
        pool.add(rng.getrandbits(n))
    return sorted(pool)


def self_check(fw: Framework) -> SelfCheckReport:
    """Run the semantic invariant suite on one framework.

    The pool is every subset when the framework is small, and a seeded
    random sample above MAX_EXHAUSTIVE arguments. A set attacks what its
    live part, its members that attack something, attacks. On the
    exhaustive pool the attacked sets come in subset order from doubling
    a list once per argument, an argument that attacks nothing repeating
    the list; on the sampled pool they are read once per distinct live
    part from a table built for this call (_attacked_lookup, one row of
    256 masks per 8 arguments), and single sets are resolved through the
    pool's live parts or that table. Weak conflict-freeness is computed
    once per subset from its attacked set. f_step and g_step read only the
    attacked set, so the pool falls into classes of subsets sharing one,
    and _defended and _not_attacked run once per class; sets outside the
    pool that the laws reach join the same class tables, so the laws
    pass no attacked set to a kernel twice. Laws that read only f_step and
    g_step are checked once per class, the interchange tally counting
    each class as many times as it has members. A class holds at most one
    fixed point of f_step, its f_step value, and one of g_step, its g_step
    value, so the fixed-point laws test those two candidates. Never
    raises: extension laws run on the exhaustive pool only.

    On the exhaustive pool, f_monotone and g_antimonotone compare each
    subset t with t plus one member i outside it (covering pairs), and
    stable_maximal_conflict_free adds one member to each stable set. The
    verdicts are those of all subset pairs and all supersets: every chain
    of additions stays in the pool, so a violating pair has a violating
    covering pair on its chain, and any subset of a conflict-free set is
    conflict-free. A covering pair (t, t | {i}) is the class pair (a, a |
    targets[i]), a the attacked set of t, so covering pairs are checked
    once per class, with no walk over subsets: class a is paired with a |
    targets[i] for every argument i. An i that some member of a lacks
    gives the class pair of a covering pair; an i that every member
    holds has targets[i] within a, and the pair (a, a) holds trivially.
    So the verdicts are those of the covering pairs, and no per-class
    meet of members is needed to pick the i. The sampled pool
    keeps four random sub-subsets per member for monotonicity, drawn one
    member at a time within its live part, and checks their attacked
    sets against the member's f_step and g_step. A draw is resolved
    through the pool's live parts, and through the table when no member
    shares it; draws are not kept, so on a 1000-argument chain, where
    nearly every set attacks a set of its own, the check stays under
    8 MB. Extension laws need full enumeration and are skipped above
    MAX_EXHAUSTIVE.

    grounded_is_fixed_point and grounded_is_union_of_f_chain cross-check
    two independent algorithms: grounded_extension labels on attacker
    masks in rounds and never calls _defended, while the laws apply _defended
    to its answer and rebuild the least fixed point by iterating
    _defended from the unattacked class.
    """
    n = len(fw.arguments)
    full = (1 << n) - 1
    exhaustive = n <= MAX_EXHAUSTIVE
    targets = fw.attack_targets_mask
    lookup = _attacked_lookup(fw)
    live = sum(1 << i for i, t in enumerate(targets) if t)
    if exhaustive:
        # The subsets with bit i set are those without it plus i, so one
        # doubling per argument lists every attacked set in subset order.
        att_list = [0]
        for t in targets:
            att_list += [a | t for a in att_list] if t else att_list
        att_of = live_att = dict(enumerate(att_list))
    else:
        pool = _subset_pool(n)
        live_att = {k: lookup(k) for k in {s & live for s in pool}}
        att_of = {s: live_att[s & live] for s in pool}
    class_size = Counter(att_of.values())
    # f_table[a] and g_table[a] are f_step and g_step of every set
    # attacking exactly a.
    f_table = {a: _defended(fw, a) for a in class_size}
    g_table = {a: _not_attacked(fw, a) for a in class_size}

    def att(s: int) -> int:
        s &= live
        a = live_att.get(s)
        return lookup(s) if a is None else a

    def f(a: int) -> int:
        if a not in f_table:
            f_table[a] = _defended(fw, a)
        return f_table[a]

    def g(a: int) -> int:
        if a not in g_table:
            g_table[a] = _not_attacked(fw, a)
        return g_table[a]

    cf_of = {s: _conflict_free_mask(fw, s, "weak", a) for s, a in att_of.items()}
    results: list[CheckResult] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        results.append(CheckResult(name, "pass" if ok else "fail", detail))

    def show(mask: int) -> str:
        return "{" + ", ".join(_ordered_ids(fw, mask)) + "}"

    # Structural laws for the attack relation and the preference.
    record("attacks_within_defeats", all(
        a & ~d == 0 for a, d in zip(fw.attack_targets_mask, fw.defeat_targets_mask)))
    if fw.preference_mask is None:
        record("empty_preference_keeps_all_defeats",
               fw.attack_targets_mask == fw.defeat_targets_mask)
    else:
        results.append(CheckResult("empty_preference_keeps_all_defeats", "skipped",
                                   "preference is not empty"))
    # strict[i] holds what argument i is strictly preferred to; transitivity
    # asks that strict[j] lie within strict[i], or be i itself, when i is above j.
    strict = strict_masks(fw.preference_mask or ())
    record("preference_strict_part_asymmetric",
           not any(strict[j] >> i & 1 for i, m in enumerate(strict) for j in _bits(m)))
    record("preference_strict_part_transitive",
           all(strict[j] & ~m & ~(1 << i) == 0 for i, m in enumerate(strict) for j in _bits(m)))

    # Pointwise operator laws over the pool.
    unattacked = _unhit(targets)
    record("f_of_empty_is_unattacked_class", f_table[att_of[0]] == unattacked)
    record("g_of_empty_is_everything", g_table[att_of[0]] == full)
    record("g_of_everything_is_unattacked_class", g_table[att_of[full]] == unattacked)
    record("unattacked_class_conflict_free",
           _conflict_free_mask(fw, unattacked, "weak", att(unattacked)))
    record("conflict_free_iff_within_g",
           all(cf_of[s] == (s & ~g_table[a] == 0) for s, a in att_of.items()))
    record("f_preserves_conflict_freeness", all(
        cf_of[fs] if fs in cf_of else _conflict_free_mask(fw, fs, "weak", att(fs))
        for fs in {f_table[a] for s, a in att_of.items() if cf_of[s]}
    ))

    # Monotonicity: covering pairs on the exhaustive pool, four random
    # sub-subsets per member on the sampled one.
    f_mono = True
    g_anti = True
    if exhaustive:
        # Adding i to a member of class a gives a member of class
        # a | targets[i], the member itself when it holds i, so pairing
        # every class with every i covers each covering pair and adds only
        # pairs (a, a), which hold.
        for a in class_size:
            fa = f_table[a]
            ga = g_table[a]
            for t in targets:
                a_sup = a | t
                if fa & ~f_table[a_sup]:
                    f_mono = False
                if g_table[a_sup] & ~ga:
                    g_anti = False
    else:
        # Both tables hold the pool's classes so far, so a draw's attacked
        # set is missing from both or from neither.
        rng = random.Random(SAMPLE_SEED + 1)
        for s, a in att_of.items():
            k = s & live
            fs = f_table[a]
            gs = g_table[a]
            for _ in range(4):
                d = k & rng.getrandbits(n)
                a_sub = live_att[d] if d in live_att else lookup(d)
                if a_sub not in f_table:
                    f_table[a_sub] = _defended(fw, a_sub)
                    g_table[a_sub] = _not_attacked(fw, a_sub)
                if f_table[a_sub] & ~fs:
                    f_mono = False
                if gs & ~g_table[a_sub]:
                    g_anti = False
    record("f_monotone", f_mono)
    record("g_antimonotone", g_anti)

    # Grounded extension laws.
    grounded = sum(1 << i for i in _grounded_labelling(fw)[0])
    grounded_att = att(grounded)
    gfp = g(grounded_att)
    record("grounded_is_fixed_point", f(grounded_att) == grounded)
    record("grounded_conflict_free", _conflict_free_mask(fw, grounded, "weak", grounded_att))
    chain = union = unattacked
    while True:
        chain = f(att(chain))
        if union | chain == union:
            break
        union |= chain
    record("grounded_is_union_of_f_chain", union == grounded, show(union))

    gfp_att = att(gfp)
    gfp_conflict_free = _conflict_free_mask(fw, gfp, "weak", gfp_att)
    record("gfp_is_fixed_point_of_f", f(gfp_att) == gfp)
    # Conflict-freeness of the greatest fixed point collapses the whole
    # fixed-point interval: any member outside the grounded extension
    # keeps an attacker inside the gfp.
    record(
        "gfp_conflict_free_iff_equals_grounded",
        gfp_conflict_free == (gfp == grounded),
        show(gfp),
    )

    # Fixed-point laws and the f/g interchange tally, one class at a time:
    # a member s of class a is fixed by f_step exactly when s is f_step's
    # value on a, and by g_step exactly when s is g_step's value on a.
    fgf_mismatch = 0
    fgf_f_fp_mismatch = 0
    fgf_g_fp_mismatch = 0
    sandwich_ok = True
    g_fp_ok = True
    f_is_g_twice_ok = True
    for a, size in class_size.items():
        fs = f_table[a]
        gs = g_table[a]
        gs_att = att(gs)
        f_fixed = att_of.get(fs) == a
        if g(gs_att) != fs:
            f_is_g_twice_ok = False
        if fs != g(att(fs)):
            fgf_mismatch += size
            fgf_f_fp_mismatch += f_fixed
            fgf_g_fp_mismatch += att_of.get(gs) == a
        if f_fixed:
            if fs & ~gfp or grounded & ~fs:
                sandwich_ok = False
            if f(gs_att) != gs:
                g_fp_ok = False
    record("fixed_points_between_grounded_and_gfp", sandwich_ok)
    record("g_of_fixed_point_is_fixed_point", g_fp_ok)
    record("f_step_is_g_step_twice", f_is_g_twice_ok)
    record("f_g_interchange_at_g_fixed_points", fgf_g_fp_mismatch == 0,
           f"{fgf_g_fp_mismatch} mismatches at fixed points of g_step")
    record("f_g_interchange_diagnostic", True,
           f"{fgf_mismatch}/{len(att_of)} pool subsets differ, "
           f"{fgf_f_fp_mismatch} at fixed points of f_step")

    # Extension laws need full enumeration.
    if exhaustive:
        complete = _fixed_points(fw, "weak", MAX_EXHAUSTIVE)
        stable = [s for s in complete if g_table[att_of[s]] == s]
        record("grounded_is_complete", grounded in complete)
        record("grounded_least_complete", all(grounded & ~s == 0 for s in complete))
        # The pool holds every subset here, so the g_step value of each
        # class is every candidate stable set; S attacks every outsider
        # exactly when g_step(S) lies within S.
        record("stable_implies_complete", {
            gs for a, gs in g_table.items() if att_of[gs] == a and cf_of[gs]
        } <= set(complete))
        record("stable_iff_attacks_every_outsider", all(
            (g_table[a] == s) == (g_table[a] & ~s == 0)
            for s, a in att_of.items() if cf_of[s]
        ))
        record("stable_maximal_conflict_free",
               not any(cf_of[s | 1 << i] for s in stable for i in _bits(full & ~s)))
        # Only one direction is sound: a conflict-free gfp forces the
        # grounded extension to be the sole complete extension. The
        # converse fails whenever an odd attack cycle (a self-attack
        # included) leaves extra fixed points that are not conflict-free.
        record(
            "gfp_conflict_free_implies_unique_complete",
            not gfp_conflict_free or complete == [grounded],
        )
    else:
        for name in (
            "grounded_is_complete",
            "grounded_least_complete",
            "stable_implies_complete",
            "stable_iff_attacks_every_outsider",
            "stable_maximal_conflict_free",
            "gfp_conflict_free_implies_unique_complete",
        ):
            results.append(CheckResult(name, "skipped", "framework too large to enumerate"))

    return SelfCheckReport(
        results=tuple(results),
        fgf_checked=len(att_of),
        fgf_mismatches=fgf_mismatch,
        fgf_f_fixed_point_mismatches=fgf_f_fp_mismatch,
        fgf_g_fixed_point_mismatches=fgf_g_fp_mismatch,
    )
