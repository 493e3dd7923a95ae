"""
A generic finite-poset engine used as an independent brute-force verifier.

A FinitePoset stores an indexed list of opaque labels, the cover
relation (as the transitive reduction of the order), and the full
reachability relation as per-element bitmasks.  Everything here is
computed from first principles -- the defining sum for the Moebius
function, meets and joins read off the principal down- and up-sets,
Birkhoff's representation for distributivity -- so that the closed-form
results elsewhere in the package can be checked against it.  birkhoff
returns that representation.  are_isomorphic, induced_subposet and
enumerate_intervals have no caller in the package; they stay while the
benchmark traces them.
"""
from __future__ import annotations

import copy
import itertools
import re
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .permutations import _shown, check_size

ISO_SIZE_LIMIT = 64
# The builders refuse more elements: n elements take n^2 bits of masks.
POSET_SIZE_LIMIT = 1 << 16


class PosetError(ValueError):
    pass


class FinitePoset:
    def __init__(self, labels: Sequence[Hashable], above: list[int]):
        """above[i] is a bitmask of the j with i <= j (including i itself).

        PosetError unless the masks are a partial order.  Certificate, one
        pass over the upper covers found below: each above[i] is bit i OR
        the up-sets of i's upper covers, none of which holds bit i.  Then
        each cover's up-set is a strictly smaller subset of above[i], so
        induction on popcount gives transitivity; and any j != i in
        above[i] lies in a cover's up-set, so above[j] cannot hold bit i.
        """
        self.labels = _within_size_limit(labels)
        self.n = len(self.labels)
        self._index = _label_index(self.labels)
        top = 1 << self.n
        if not (type(above) is list and len(above) == self.n and all(
                type(m) is int and 0 <= m < top and m >> i & 1 for i, m in enumerate(above))):
            raise PosetError(f"above must be a list of {self.n} masks, the i-th with bit i")
        self._above = above
        # Strictly larger up-sets come first: a topological order.
        self._order = sorted(range(self.n), key=lambda i: -above[i].bit_count())
        lower: list[list[int]] = [[] for _ in range(self.n)]
        covers = []
        for i, keep in enumerate(_upper_cover_masks(above, self._order)):
            closure = 1 << i
            for j in _bits(keep):
                if above[j] >> i & 1:
                    raise PosetError(f"not a partial order: {_shown(self.labels[i])} and "
                                     f"{_shown(self.labels[j])} are each below the other")
                closure |= above[j]
                lower[j].append(i)
                covers.append((i, j))
            if closure != above[i]:
                raise PosetError(f"not a partial order: the up-set of {_shown(self.labels[i])}"
                                 " is not the union of its upper covers' up-sets")
        self._covers = frozenset(covers)
        below = [0] * self.n
        for j in self._order:
            mask = 1 << j
            for i in lower[j]:
                mask |= below[i]
            below[j] = mask
        self._below = below
        self._mobius_rows: dict[int, dict[int, int]] = {}
        # mask -> index, inverting _below and _above: a meet or a join is one lookup.
        self._by_below = {mask: k for k, mask in enumerate(below)}
        self._by_above = {mask: k for k, mask in enumerate(above)}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_covers(
        cls, labels: Sequence[Hashable], cover_pairs: Iterable[tuple[int, int]]
    ) -> "FinitePoset":
        """Build from cover index pairs (lower, upper); rejects cycles."""
        labels = _within_size_limit(labels)
        n = len(labels)
        order, succ = _topological_order(n, cover_pairs)
        above = [0] * n
        for i in reversed(order):
            mask = 1 << i
            for j in succ[i]:
                mask |= above[j]
            above[i] = mask
        return cls(labels, above)

    @classmethod
    def from_leq(
        cls,
        labels: Sequence[Hashable],
        leq: Callable[[Hashable, Hashable], bool],
    ) -> "FinitePoset":
        """Build from a comparison callable; the constructor verifies that
        it is a partial order."""
        labels = _within_size_limit(labels)
        if not callable(leq):
            raise PosetError(f"leq must be callable, not {type(leq).__name__}")
        n = len(labels)
        above = [0] * n
        for i in range(n):
            mask = 0
            for j in range(n):
                if leq(labels[i], labels[j]):
                    mask |= 1 << j
            if not mask >> i & 1:
                raise PosetError(f"relation not reflexive at {_shown(labels[i])}")
            above[i] = mask
        return cls(labels, above)

    @classmethod
    def from_vectors(
        cls, labels: Sequence[Hashable], vectors: Sequence[Sequence[int]]
    ) -> "FinitePoset":
        """The labels ordered componentwise by their vectors.  The up-set of
        x is the intersection over coordinates i of {y : y_i >= x_i}, read
        from threshold bitsets over the ranks of the values in column i.
        Raises PosetError unless the vectors, one per label, are
        iterables of one length with comparable entries, and distinct."""
        labels = _within_size_limit(labels)
        try:
            vectors = [tuple(v) for v in vectors]
            values = [sorted(set(column)) for column in zip(*vectors)]
        except TypeError as err:
            raise PosetError(f"vectors must hold comparable entries: {err}") from None
        if len(vectors) != len(labels) or len({len(v) for v in vectors}) > 1:
            raise PosetError("need one vector per label, all of one length")
        if len(set(vectors)) != len(vectors):
            raise PosetError("two labels have the same vector")
        above = [(1 << len(labels)) - 1] * len(labels)
        for column, ordered in zip(zip(*vectors), values):
            rank = {v: r for r, v in enumerate(ordered)}
            # at_least[r] = {k : column[k] has rank >= r}
            at_least = [0] * (len(rank) + 1)
            for k, v in enumerate(column):
                at_least[rank[v]] |= 1 << k
            for r in range(len(rank) - 1, -1, -1):
                at_least[r] |= at_least[r + 1]
            above = [mask & at_least[rank[v]] for mask, v in zip(above, column)]
        return cls(labels, above)

    def relabeled(self, labels: Sequence[Hashable]) -> "FinitePoset":
        """This poset with labels[i] as the label of element i.  The masks,
        covers and order are shared, not recomputed; PosetError for a wrong
        number of labels, duplicates or unhashable labels."""
        other = copy.copy(self)
        other.labels = _within_size_limit(labels)
        if len(other.labels) != self.n:
            raise PosetError(f"need {self.n} labels")
        other._index = _label_index(other.labels)
        return other

    # -- basic queries -------------------------------------------------------

    @property
    def covers(self) -> frozenset[tuple[int, int]]:
        return self._covers

    def cover_labels(self) -> set[tuple[Hashable, Hashable]]:
        return {(self.labels[i], self.labels[j]) for i, j in self._covers}

    def index_of(self, label: Hashable) -> int:
        """The index of label; PosetError for a missing or unhashable label."""
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise PosetError(f"no element is labelled {_shown(label)}") from None

    def _check_pair(self, i: int, j: int) -> None:
        """PosetError unless i and j are both int indices in range(n)."""
        if not (type(i) is int and type(j) is int and 0 <= i < self.n and 0 <= j < self.n):
            raise PosetError(f"indices must be ints in range({self.n})")

    def leq(self, i: int, j: int) -> bool:
        self._check_pair(i, j)
        return bool(self._above[i] >> j & 1)

    # -- Moebius -------------------------------------------------------------

    def mobius(self, s: int, u: int) -> int:
        """Moebius function; the whole row mu(s, .) is computed on first use."""
        self._check_pair(s, u)
        row = self._mobius_rows.get(s)
        if row is None:
            row = self._mobius_rows[s] = self._mobius_row(s)
        return row.get(u, 0)

    def _mobius_row(self, s: int) -> dict[int, int]:
        """mu(s, u) for every u >= s by the defining sum
        mu(s, u) = -sum(mu(s, t) for s <= t < u), in topological order.
        masks[c] holds the t already given the value c, so each sum is one
        popcount per distinct value."""
        up = self._above[s]
        row: dict[int, int] = {}
        masks: dict[int, int] = {}
        for u in self._order:
            if not up >> u & 1:
                continue
            if u == s:
                value = 1
            else:
                interval = up & self._below[u]
                value = -sum(c * (interval & m).bit_count() for c, m in masks.items())
            row[u] = value
            if value:
                masks[value] = masks.get(value, 0) | 1 << u
        return row

    # -- intervals -----------------------------------------------------------

    def enumerate_intervals(self) -> list[tuple[int, int]]:
        """No library caller; traced by perfbench, deleted with its TRACED entry."""
        return [(i, j) for i in range(self.n) for j in _bits(self._above[i])]

    # -- gradedness ----------------------------------------------------------

    def is_graded(self):
        """Check that all maximal chains between any fixed pair have equal length.

        Returns (True, ranks) with ranks computed as longest-path distance
        from the minimal elements, or (False, (chain_a, chain_b)) with two
        saturated chains of different lengths between the same endpoints.
        Up from x in topological order, y takes rank[p] + 1 from its first lower cover
        p above x; if every [x, q] below is graded, so is [x, y] iff all share p's rank.
        """
        topo = self._order
        pred: list[list[int]] = [[] for _ in range(self.n)]
        for lo, hi in self._covers:
            pred[hi].append(lo)
        for x in range(self.n):
            rank = {x: 0}
            parent: dict[int, Optional[int]] = {x: None}
            for y in topo:
                if y == x or not self._above[x] >> y & 1:
                    continue
                covers = [p for p in pred[y] if p in rank]
                p = covers[0]
                for q in covers:
                    if rank[q] != rank[p]:
                        return False, (_walk_back(p, parent) + [y], _walk_back(q, parent) + [y])
                rank[y] = rank[p] + 1
                parent[y] = p
        ranks = [0] * self.n
        for y in topo:
            for p in pred[y]:
                ranks[y] = max(ranks[y], ranks[p] + 1)
        return True, ranks

    # -- lattice structure -----------------------------------------------------

    def meet(self, i: int, j: int) -> Optional[int]:
        """The greatest lower bound of i and j, or None.  It exists iff the
        common down-set is the down-set of some element, which is then the
        meet (Davey & Priestley, Introduction to Lattices and Order, ch. 2)."""
        self._check_pair(i, j)
        return self._meet(i, j)

    def join(self, i: int, j: int) -> Optional[int]:
        """The least upper bound of i and j, or None; dual to meet."""
        self._check_pair(i, j)
        return self._join(i, j)

    def _meet(self, i: int, j: int) -> Optional[int]:
        return self._by_below.get(self._below[i] & self._below[j])

    def _join(self, i: int, j: int) -> Optional[int]:
        return self._by_above.get(self._above[i] & self._above[j])

    def is_lattice(self) -> bool:
        """Whether every pair has a meet and a join."""
        return all(
            self._meet(i, j) is not None and self._join(i, j) is not None
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def is_distributive(self) -> bool:
        """Whether this is a distributive lattice, by birkhoff."""
        return birkhoff(self.n, self._covers) is not None

    def find_pentagon(self) -> Optional[tuple[int, int, int, int, int]]:
        """An N5 sublattice (bottom, short, low, high, top), via a modularity
        violation x <= z with x v (y ^ z) < (x v y) ^ z."""
        if not self.is_lattice():
            raise PosetError("pentagon search requires a lattice")
        meet, join = self._meet, self._join
        for x in range(self.n):
            for z in _bits(self._above[x] & ~(1 << x)):
                for y in range(self.n):
                    a = join(x, meet(y, z))
                    b = meet(join(x, y), z)
                    if a == b:
                        continue
                    bot = meet(y, a)
                    top = join(y, b)
                    quint = (bot, y, a, b, top)
                    if self._is_n5(quint):
                        return quint
        return None

    def _is_n5(self, quint: tuple[int, int, int, int, int]) -> bool:
        bot, y, a, b, top = quint
        return (
            len(set(quint)) == 5
            and self.leq(bot, y)
            and self.leq(y, top)
            and self.leq(a, b)
            and self.meet(y, a) == bot
            and self.meet(y, b) == bot
            and self.join(y, a) == top
            and self.join(y, b) == top
            and self.join(a, b) == b
            and self.meet(a, b) == a
            and not self.leq(y, a)
            and not self.leq(a, y)
        )

    # -- subposets, isomorphism ------------------------------------------------

    def induced_subposet(self, labels: Iterable[Hashable]) -> "FinitePoset":
        """No library caller; traced by perfbench, deleted with its TRACED entry."""
        idx = [self._index[lab] for lab in labels]
        remap = {old: new for new, old in enumerate(idx)}
        above = []
        for old in idx:
            mask = 0
            for other in idx:
                if self.leq(old, other):
                    mask |= 1 << remap[other]
            above.append(mask)
        return FinitePoset([self.labels[i] for i in idx], above)

    def are_isomorphic(self, other: "FinitePoset") -> bool:
        """No library caller; traced by perfbench, deleted with its TRACED entry."""
        if self.n != other.n:
            return False
        if self.n > ISO_SIZE_LIMIT:
            raise PosetError(f"isomorphism search capped at {ISO_SIZE_LIMIT} elements")
        mine = self._refined_colors()
        theirs = other._refined_colors()
        if sorted(mine) != sorted(theirs):
            return False
        groups: dict[int, list[int]] = {}
        for j in range(other.n):
            groups.setdefault(theirs[j], []).append(j)
        order = sorted(range(self.n), key=lambda i: (mine[i], i))
        mapping: dict[int, int] = {}
        used = [False] * other.n

        def backtrack(k: int) -> bool:
            if k == self.n:
                return True
            i = order[k]
            for j in groups.get(mine[i], ()):
                if used[j] or any(
                    self.leq(i, i2) != other.leq(j, j2) or self.leq(i2, i) != other.leq(j2, j)
                    for i2, j2 in mapping.items()
                ):
                    continue
                mapping[i] = j
                used[j] = True
                if backtrack(k + 1):
                    return True
                del mapping[i]
                used[j] = False
            return False

        return backtrack(0)

    def _refined_colors(self) -> list[int]:
        up = [[] for _ in range(self.n)]
        down = [[] for _ in range(self.n)]
        for lo, hi in self._covers:
            up[lo].append(hi)
            down[hi].append(lo)
        colors = [hash((self._above[i].bit_count(), self._below[i].bit_count(),
                        len(up[i]), len(down[i]))) for i in range(self.n)]
        for _ in range(self.n):
            new = [hash((colors[i], tuple(sorted(colors[j] for j in up[i])),
                         tuple(sorted(colors[j] for j in down[i])))) for i in range(self.n)]
            stable = len(set(new)) == len(set(colors))
            colors = new
            if stable:
                break
        return colors

    # -- import / export --------------------------------------------------------

    def to_edge_list(self) -> str:
        """One line 'a < b' per cover, sorted.

        Raises PosetError for what would not parse back as itself: an
        element in no cover, two labels with the same text, or a label
        that is empty, spans lines, has surrounding whitespace, or contains
        ' < ' once a space is appended (so also one ending in ' <').
        """
        texts = _distinct_texts([str(lab) for lab in self.labels])
        for text in texts:
            if text.splitlines() != [text] or text != text.strip() or " < " in text + " ":
                raise PosetError(f"label {_shown(text)} cannot be written as an edge list")
        if len({i for pair in self._covers for i in pair}) != self.n:
            raise PosetError("an element in no cover cannot be written as an edge list")
        lines = sorted(f"{texts[i]} < {texts[j]}" for i, j in self._covers)
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_edge_list(cls, text: str) -> "FinitePoset":
        seen: dict[str, int] = {}  # label -> index, in order of appearance
        pairs = []
        for lineno, line in enumerate(_text(text).splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if " < " not in line:
                raise PosetError(f"line {lineno}: expected 'a < b'")
            a, b = (part.strip() for part in line.split(" < ", 1))
            pairs.append((seen.setdefault(a, len(seen)), seen.setdefault(b, len(seen))))
        return cls.from_covers(list(seen), pairs)

    def to_dot(self, name: str = "poset") -> str:
        """The Hasse diagram in DOT, every node declared on its own line.

        Labels are quoted with backslash, double quote and newline escaped.
        Raises PosetError when two labels have the same text.
        """
        quoted = _distinct_texts([_dot_quote(lab) for lab in self.labels])
        lines = [f"digraph {name} {{", '  rankdir="BT";']
        lines.extend(f"  {q};" for q in quoted)
        lines.extend(f"  {quoted[i]} -> {quoted[j]};" for i, j in sorted(self._covers))
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dot(cls, text: str) -> "FinitePoset":
        node_re = re.compile(rf"^\s*{_DOT_STRING}\s*;\s*$")
        edge_re = re.compile(rf"{_DOT_STRING}\s*->\s*{_DOT_STRING}")
        seen: dict[str, int] = {}  # label -> index, in order of appearance

        def intern(quoted: str) -> int:
            return seen.setdefault(re.sub(r"\\(.)", _dot_unescape, quoted), len(seen))

        pairs = []
        # Not splitlines(): to_dot escapes only "\n", so other line
        # boundaries ("\r", "\x85", ...) may occur inside a label.
        for line in _text(text).split("\n"):
            m = node_re.match(line)
            if m:
                intern(m.group(1))
                continue
            for a, b in edge_re.findall(line):
                pairs.append((intern(a), intern(b)))
        return cls.from_covers(list(seen), pairs)


# A double-quoted DOT string on one line; group 1 is its escaped content.
_DOT_STRING = r'"((?:[^"\\\n]|\\.)*)"'


def _within_size_limit(labels: Sequence[Hashable]) -> tuple:
    """labels as a tuple; PosetError unless iterable with at most POSET_SIZE_LIMIT elements."""
    try:
        labels = tuple(labels)
    except TypeError:
        raise PosetError(f"labels must be iterable, not {type(labels).__name__}") from None
    if len(labels) > POSET_SIZE_LIMIT:
        raise PosetError(f"{len(labels)} elements exceed the limit of {POSET_SIZE_LIMIT}")
    return labels


def _label_index(labels: tuple) -> dict[Hashable, int]:
    """label -> position; PosetError for an unhashable or a repeated label."""
    try:
        index = {lab: i for i, lab in enumerate(labels)}
    except TypeError as err:
        raise PosetError(f"labels must be hashable: {err}") from None
    if len(index) != len(labels):
        raise PosetError("duplicate labels")
    return index


def _text(text: str) -> str:
    if not isinstance(text, str):
        raise PosetError(f"expected text, not {type(text).__name__}")
    return text


def _distinct_texts(texts: list[str]) -> list[str]:
    if len(set(texts)) != len(texts):
        raise PosetError("two labels have the same text")
    return texts


def _dot_quote(label: Hashable) -> str:
    text = str(label).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


def _dot_unescape(m: re.Match) -> str:
    return "\n" if m.group(1) == "n" else m.group(1)


# ---------------------------------------------------------------------------
# Stock posets


def chain(k: int) -> FinitePoset:
    """The chain 0 < 1 < ... < k-1."""
    check_size(k, 0, POSET_SIZE_LIMIT, name="k")
    return FinitePoset.from_covers(list(range(k)), [(i, i + 1) for i in range(k - 1)])


def antichain(k: int) -> FinitePoset:
    check_size(k, 0, POSET_SIZE_LIMIT, name="k")
    return FinitePoset.from_covers(list(range(k)), [])


def boolean_lattice(k: int) -> FinitePoset:
    check_size(k, 0, 16, name="k", why="2^k would exceed the poset size limit")
    subsets = [frozenset(s) for r in range(k + 1)
               for s in itertools.combinations(range(k), r)]
    idx = {s: i for i, s in enumerate(subsets)}
    pairs = [(idx[s], idx[s | {extra}]) for s in subsets for extra in range(k) if extra not in s]
    return FinitePoset.from_covers([tuple(sorted(s)) for s in subsets], pairs)


def pentagon() -> FinitePoset:
    """N5: 0 < a < b < 1 on one side, 0 < c < 1 on the other."""
    return FinitePoset.from_covers(
        ["0", "a", "b", "c", "1"],
        [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
    )


def diamond() -> FinitePoset:
    """M3: three incomparable atoms between bottom and top."""
    return FinitePoset.from_covers(
        ["0", "a", "b", "c", "1"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
    )


# ---------------------------------------------------------------------------


def birkhoff(n: int, covers: Iterable[tuple[int, int]]) -> Optional[tuple[list[int], list[int]]]:
    """(phi, below) if the cover pairs (lower, upper) on 0..n-1 are the
    Hasse diagram of a distributive lattice, else None; PosetError for a
    bad size, a bad pair or a cycle.  With J the elements that have one
    lower cover, phi[y] is the mask over J of J & down-set(y), and
    below[j] the mask of the J-elements strictly below the j-th.

    Birkhoff (Stanley, EC1 3.4): the pairs are such a diagram iff phi is
    injective (so one element is minimal) and the upper covers of each x
    carry exactly the masks phi(x) | {j}, j minimal in J - phi(x); phi is
    then an isomorphism onto the down-sets of J, and popcount(phi[y]) is
    the rank of y.  O(covers + n |J|), with no n x n table."""
    order, succ = _topological_order(n, covers)
    phi = [0] * n
    lower_count = [0] * n
    below: list[int] = []
    for y in order:
        if lower_count[y] == 1:  # y is the next element of J
            below.append(phi[y])
            phi[y] |= 1 << (len(below) - 1)
        for z in succ[y]:
            phi[z] |= phi[y]
            lower_count[z] += 1
    if len(set(phi)) != n:
        return None
    for x in range(n):
        down = phi[x]
        added = 0  # phi(x) lies inside phi(y), so y adds these bits
        for y in succ[x]:
            bit = phi[y] ^ down
            if bit & (bit - 1):
                return None
            added |= bit
        minimal = sum([1 << j for j, mask in enumerate(below) if not mask & ~down])
        if added != minimal & ~down:
            return None
    return phi, below


def _topological_order(
    n: int, cover_pairs: Iterable[tuple[int, int]]
) -> tuple[list[int], list[list[int]]]:
    """A topological order of the cover pairs, and each element's upper
    covers, repeats dropped; PosetError for a size check_size refuses, a
    pair that is not two indices in range, or a cycle (or self-loop)."""
    try:
        check_size(n, 0, POSET_SIZE_LIMIT, name="size", why="a larger one exceeds the limit")
    except ValueError as err:
        raise PosetError(str(err)) from None
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    try:
        for lo, hi in dict.fromkeys(cover_pairs):  # drops repeats, keeps order
            if not (0 <= lo < n and 0 <= hi < n):
                raise PosetError(f"dangling index in cover {_shown((lo, hi))}")
            succ[lo].append(hi)
            indeg[hi] += 1
    except TypeError as err:
        raise PosetError(f"covers must be pairs of int indices: {err}") from None
    stack = [i for i in range(n) if indeg[i] == 0]
    order = []
    while stack:
        i = stack.pop()
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    if len(order) != n:
        raise PosetError("cover relation contains a cycle")
    return order, succ


def _upper_cover_masks(above: list[int], order: list[int]) -> list[int]:
    """The mask of upper covers of each element, in index order.

    Strike-out sweep: visit the survivors of the strict up-set of i, and
    let each visited j strike out everything strictly above it.  A strict
    upper bound of i is struck by a cover below it, and a cover is never
    struck, so the survivors are the covers in any visiting order.  Only
    covers are visited when the order is a linear extension.  The sweep
    goes by increasing index, a linear extension for the middle, weak,
    involution, regular and parking posets and the stock ones, but not
    for the Bruhat order (from n = 3) or for covers read from text.  An
    up-set holding a smaller index shows that the indices are not one;
    the sweep then starts over in the topological order.
    """
    out = []
    for i, mask in enumerate(above):
        keep = rest = mask & ~(1 << i)
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if j < i:
                return _upper_cover_masks_in_blocks(above, order)
            keep &= ~above[j] | low
            rest = keep >> (j + 1) << (j + 1)
        out.append(keep)
    return out


def _upper_cover_masks_in_blocks(above: list[int], order: list[int]) -> list[int]:
    """The strike-out sweep in the topological order: the strict up-set
    is cut into blocks of 64 consecutive positions, and the survivors in
    a block are visited by position.  Relabelling every mask into the
    topological order would cost one step per comparable pair."""
    position = [0] * len(order)
    for p, i in enumerate(order):
        position[i] = p
    blocks = [sum(1 << j for j in order[start:start + 64]) for start in range(0, len(order), 64)]
    out = []
    for i, mask in enumerate(above):
        keep = mask & ~(1 << i)
        for block in blocks[position[i] // 64:]:
            rest = keep & block
            if rest:
                for j in sorted(_bits(rest), key=position.__getitem__):
                    if keep >> j & 1:
                        keep &= ~above[j] | (1 << j)
        out.append(keep)
    return out


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _walk_back(y: int, parents: dict[int, Optional[int]]) -> list[int]:
    chain_back = [y]
    while parents[chain_back[-1]] is not None:
        chain_back.append(parents[chain_back[-1]])
    return list(reversed(chain_back))
