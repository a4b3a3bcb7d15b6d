"""Defeat relations, preference orderings, and the derived attack relation.

Defeat is purely logical. One argument rebuts another when its
conclusion is equivalent to the negation of the other's conclusion; it
undercuts the other when its conclusion is equivalent to the negation
of some member of the other's support. Equivalence is semantic, so `r`
rebuts `!r` as well as `!!!r`. The two kinds differ only in which
formulas of the target are negated, so one keyed pass finds either,
and it reads only the masks the universe carries past its support walk:
each target is filed under the complement of its conclusion mask
(rebut) or of the mask of each belief position in its support
(undercut), and each argument looks its own conclusion mask up once.

A preference preorder then filters defeats into attacks: a defeat of A
by B becomes an attack unless A is strictly preferred to B, in which
case A shrugs the defeat off and the edge is dropped.

The preorder is plain data, one bitmask per argument position: bit j of
argument i's mask says i is at least as preferred as j, and None stands
for no preference at all. `certainty_masks` builds one mask per level,
and the `.af` parser closes explicit pairs in one pass over the
strongly connected components of their graph (`_reach_masks`), so the
closure costs O(n + m) mask ORs. Defeats are held the same way, one
target mask per argument, from the builders to the semantics. With no
preference the attack targets are the defeat targets. Otherwise the
defeat of A by B is dropped iff B is in A's mask and A is not in B's,
so the test runs only on the targets A of B that B's own mask leaves
out; it clears A's bit in B's target row and B's bit in A's attacker
mask. Every converse relation comes from one transpose (`_transpose`),
which peels each row's bits highest first through a table of
single-bit masks: the defeaters, from which the drop test then clears
the dropped edges, the holders of each belief from the support masks,
the strict part of a preorder, and strict mode's defeaters in the
semantics. The `.af` parser alone needs no transpose: it fills the
defeaters along with the targets.

Abstract frameworks can also be read from fact files:

    arg(a).  arg(b).
    def(a,b).          % a defeats b
    pref(a,b).         % a is at least as preferred as b

`%` starts a comment and facts may share a line. Explicit preference
facts are closed under reflexivity and transitivity; cycles collapse
into equivalences, as a preorder allows.

The parser reads the whole text in one `findall` of one regex, whose
matches lie end to end: each skips blanks and comments, then takes a
fact, a stray character (and with it the rest of the text) or the end.
A fact may not span a line break: its blanks are `_BLANK`, the
whitespace characters (`str.isspace`) other than the `str.splitlines`
boundaries, spelt out as one class that a test checks against every
code point. Names and blanks take possessive quantifiers (Python
3.11), which leave every match as it is, since no character that may
follow a name or a run of blanks can extend it, and spare the engine
their backtracking points. The facts fill flat lists: a dict from each
declared name to its position, the defeats as two name lists (sources
and sinks), and the preference pairs. The first stray, fact with the
wrong number of names or duplicate `arg` in file order stops the read;
only then is its line found, as `str.splitlines` counts lines, by
scanning the text again up to it. Names become positions once the
read is done, the defeat sources and sinks each in one C-level `map`
over the dict; on a miss the names are scanned again in file order,
every defeat's source then its sink and then every preference pair, so
the error names the first undeclared one. So a `def` may precede the
`arg` facts that declare its names. One pass over the position pairs
then fills the defeat targets and the defeaters from a table of
single-bit masks, and the closure (`_reach_masks`) reads the preference
graph's position lists with no name looked up again. The framework
takes the name dict and both mask lists as they are, through
`Framework._derive`, so no edge is walked twice.
"""

from __future__ import annotations

import re
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence

from .arguments import Argument, ArgumentUniverse
from .errors import AFFormatError

def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach_masks(succ: Sequence[Sequence[int]]) -> list[int]:
    """Reflexive transitive closure of a graph as one reachability mask per node.

    One pass of Tarjan's strongly connected component algorithm, run on
    an explicit stack so that long chains need no recursion. A component
    is complete only after every component it reaches, so its mask is its
    members OR'd with the masks of the nodes its edges leave to; edges
    inside the component read a mask still at 0 and add nothing.
    """
    n = len(succ)
    order = [0] * n  # discovery number, 0 while unvisited
    low = [0] * n
    on_stack = [False] * n
    reach = [0] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not order[w]:
                    counter += 1
                    order[w] = low[w] = counter
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        members.append(w)
                        if w == v:
                            break
                    mask = 0
                    for w in members:
                        mask |= 1 << w
                        for x in succ[w]:
                            mask |= reach[x]
                    for w in members:
                        reach[w] = mask
    return reach


def _checked_masks(masks: Iterable[int], n: int, what: str) -> list[int]:
    """The masks as a list, if there is one per position and none has a bit past n."""
    out = list(masks)
    if len(out) != n or n and (min(out) < 0 or max(out) >> n):
        raise ValueError(f"need one {what} mask over {n} positions per argument")
    return out


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """The converse of a relation given as masks: bit i of out[j] is set iff
    bit j of masks[i] is. out holds width masks; no mask may have a bit at
    or past width.

    Each row's bits are peeled highest first, one big-int temporary per
    bit fewer than lowest first, and read from a table of single-bit masks
    rather than shifted.
    """
    bits = [1 << i for i in range(max(len(masks), width))]
    out = [0] * width
    for bit, m in zip(bits, masks):
        while m:
            j = m.bit_length() - 1
            m ^= bits[j]
            out[j] |= bit
    return out


def strict_masks(masks: Sequence[int]) -> list[int]:
    """The strict part of a preorder given as masks: j in out[i] iff i ranks
    at least as high as j and j does not rank at least as high as i."""
    return [m & ~t for m, t in zip(masks, _transpose(masks, len(masks)))]


def certainty_masks(arguments: Sequence[Argument]) -> list[int]:
    """The certainty preorder over knowledge-base arguments, one mask per position.

    A lower level is more certain. Each argument's mask holds the
    arguments at its level or a less certain one, built once per level.
    """
    levels = [a.level for a in arguments]
    if None in levels:
        raise ValueError("certainty preference requires knowledge-base arguments")
    at_level: dict[int, int] = {}
    for i, level in enumerate(levels):
        at_level[level] = at_level.get(level, 0) | 1 << i
    at_or_below: dict[int, int] = {}
    acc = 0
    for level in sorted(at_level, reverse=True):
        acc |= at_level[level]
        at_or_below[level] = acc
    return [at_or_below[level] for level in levels]


class Framework:
    """Argument list, defeat target masks, preference masks, and the derived attacks.

    Bit j of defeat_targets[i] says argument i defeats argument j. Bit j
    of preference[i] says argument i is at least as preferred as j; a
    preference of None prefers nothing and keeps every defeat. Each list
    holds one mask per argument, with no bit past the last position. The
    derived masks follow at construction, by the rule above: with no
    preference, the attack targets are the defeat targets themselves;
    with one, a copy from which the drop test removes edges, tried only
    on the targets that the attacker does not rank at least as high as.
    The attacker masks start as one transpose of the defeat targets, and
    the drop test clears each dropped edge from them too. The `.af`
    parser, which fills the defeaters along with the targets, hands its
    parts to `_derive` as they are: its name-to-position dict and both
    mask lists, so no transpose runs. `defeats` and `attacks` read the
    edges back as id pairs in position order on each access. Instances
    are immutable in use, which is what lets the lists be shared.
    """

    def __init__(
        self,
        arguments: Iterable[Argument],
        defeat_targets: Iterable[int],
        preference: Iterable[int] | None,
    ):
        arguments = tuple(arguments)
        position = {a.id: i for i, a in enumerate(arguments)}
        if len(position) != len(arguments):
            raise ValueError("duplicate argument id")
        n = len(arguments)
        targets = _checked_masks(defeat_targets, n, "defeat-target")
        pref = None if preference is None else _checked_masks(preference, n, "preference")
        self._derive(arguments, position, targets, pref, _transpose(targets, n))

    def _derive(self, arguments: tuple[Argument, ...], position: dict[str, int],
                targets: list[int], pref: list[int] | None, attackers: list[int]) -> None:
        """Keep checked parts as they are and derive the attacks from them.

        attackers is the transpose of targets, a list the framework owns
        from here on: the drop test clears each dropped edge from it as
        well as from a copy of targets.
        """
        self.arguments = arguments
        self.ids = tuple(position)
        self._position = position
        self.defeat_targets_mask = targets
        self.preference_mask = pref
        self.attackers_mask = attackers
        if pref is None:
            self.attack_targets_mask = targets
            return
        self.attack_targets_mask = attack = list(targets)
        for i, m in enumerate(targets):
            # The defeat of j by i is dropped iff j is strictly preferred
            # to i. A j that i ranks at least as high as never is, so only
            # the other targets are tested.
            m &= ~pref[i]
            bit = 1 << i
            while m:
                j = m.bit_length() - 1
                low = 1 << j
                m ^= low
                if pref[j] & bit:
                    attack[i] ^= low
                    attackers[j] ^= bit

    @property
    def defeats(self) -> tuple[tuple[str, str], ...]:
        return self._pairs(self.defeat_targets_mask)

    @property
    def attacks(self) -> tuple[tuple[str, str], ...]:
        return self._pairs(self.attack_targets_mask)

    def _pairs(self, targets: Sequence[int]) -> tuple[tuple[str, str], ...]:
        ids = self.ids
        return tuple((ids[i], ids[j]) for i, m in enumerate(targets) for j in _bits(m))

    def argument(self, arg_id: str) -> Argument:
        return self.arguments[self.position(arg_id)]

    def position(self, arg_id: str) -> int:
        try:
            return self._position[arg_id]
        except KeyError:
            raise ValueError(f"no argument {arg_id!r} in framework") from None


def build_framework(
    universe: ArgumentUniverse,
    defeat: str = "undercut",
    preference: str = "certainty",
) -> Framework:
    """Compute every defeat over a universe and derive the attacks.

    preference is "certainty" (lower level wins, `certainty_masks`) or
    "none" (every defeat is kept).

    Defeats come from one keyed pass over the universe's masks, with no
    formula looked up. Under rebut each argument is filed under the
    complement of its conclusion mask. Under undercut one OR pass over
    the support masks collects the arguments holding each belief
    position, and they are filed under the complement of that belief's
    mask. An argument's targets are then the arguments filed under its
    own conclusion mask. Every mask comes from the table the support
    walk built over the base and the candidate conclusions, so two
    masks are equal exactly when their formulas are equivalent.
    """
    if defeat not in ("rebut", "undercut"):
        raise ValueError(f"defeat must be 'rebut' or 'undercut', got {defeat!r}")
    if preference not in ("certainty", "none"):
        raise ValueError(f"preference must be 'certainty' or 'none', got {preference!r}")
    args = universe.arguments
    full = universe.table.full
    conclusions = universe.conclusion_masks
    if defeat == "rebut":
        filed = zip(conclusions, (1 << k for k in range(len(args))))
    else:
        holders = _transpose(universe.support_masks, len(universe.belief_masks))
        filed = zip(universe.belief_masks, holders)
    through: dict[int, int] = {}
    for mask, members in filed:
        key = full ^ mask
        through[key] = through.get(key, 0) | members
    targets = [through.get(m, 0) for m in conclusions]
    pref = certainty_masks(args) if preference == "certainty" else None
    return Framework(args, targets, pref)


# The line boundaries of str.splitlines. A comment ends at one, and the
# blanks inside a fact, _BLANK, are what \s matches less these, so no
# fact spans a line.
_EOL = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_BLANK = r"[\t\x1f \xa0\u1680\u2000-\u200a\u202f\u205f\u3000]"
_FACT_RE = re.compile(
    r"(?:\s|%[^{eol}]*)*+(?:(arg|def|pref){b}\({b}([A-Za-z_]\w*+){b}(?:,{b}([A-Za-z_]\w*+){b})?\)"
    r"{b}\.|(\S)(?s:.*)|\Z)".format(eol=_EOL, b=_BLANK + "*+")
)


def _fact_error(text: str, k: int) -> AFFormatError:
    """The error for the k-th match of `_FACT_RE` in text, a bad fact or a stray
    character, at its line as str.splitlines counts lines."""
    match = next(islice(_FACT_RE.finditer(text), k, None))
    kind, x, y, _ = match.groups()
    pos = max(match.start(1), match.start(4))
    if kind == "arg":
        problem = "arg() takes one name" if y else f"duplicate argument {x!r}"
    elif kind:
        problem = f"{kind}() takes two names"
    else:
        snippet = text[pos:].splitlines()[0].split("%", 1)[0].strip()[:30]
        problem = f"cannot parse fact near {snippet!r}"
    return AFFormatError(f"line {len((text[:pos] + '.').splitlines())}: {problem}")


def parse_abstract_framework(text: str) -> Framework:
    """Read `arg`, `def` and `pref` facts into a framework of abstract arguments."""
    index: dict[str, int] = {}
    sources: list[str] = []
    sinks: list[str] = []
    prefs: list[tuple[str, str]] = []
    for kind, x, y, stray in _FACT_RE.findall(text):
        if kind == "def" and y:
            sources.append(x)
            sinks.append(y)
        elif kind == "arg" and not y and x not in index:
            index[x] = len(index)
        elif kind == "pref" and y:
            prefs.append((x, y))
        elif kind or stray:
            # Every match before this one was a fact, so the facts read count them.
            raise _fact_error(text, len(index) + len(sources) + len(prefs))
    try:
        # Names become positions at C level; on a miss the lists are scanned
        # again in file order, so the error names the first undeclared name.
        heads = list(map(index.__getitem__, sources))
        tails = list(map(index.__getitem__, sinks))
        succ: list[list[int]] = [[] for _ in index] if prefs else []
        for x, y in prefs:
            succ[index[x]].append(index[y])
    except KeyError:
        names = chain.from_iterable(chain(zip(sources, sinks), prefs))
        name = next(x for x in names if x not in index)
        raise AFFormatError(f"fact names undeclared argument {name!r}") from None
    bits = [1 << i for i in range(len(index))]
    targets = [0] * len(index)
    attackers = [0] * len(index)
    for i, j in zip(heads, tails):
        targets[i] |= bits[j]
        attackers[j] |= bits[i]
    preference = _reach_masks(succ) if prefs else None
    # Argument(x) through tuple.__new__, with no Python-level __new__ per name.
    none = repeat(None)
    arguments = tuple(map(tuple.__new__, repeat(Argument), zip(index, none, none, none, none)))
    fw = Framework.__new__(Framework)
    fw._derive(arguments, index, targets, preference, attackers)
    return fw
