"""Finite matrix groups over cyclotomic fields.

Groups are materialized as explicit element lists with structural
deduplication (exact arithmetic makes hashing sound).  Closure is a
breadth-first walk from the identity, so element order is deterministic:
index 0 is the identity and indices follow generation order.

Closure records each generator's right-multiplication permutation of the
element indices.  All group structure (products, inverses, conjugacy
classes, centralizers, subgroup generators, conjugacy of subgroups and the
-id extension) comes from those integer tables, as in the permutation-group
representation of Holt, Eick and O'Brien, Handbook of Computational Group
Theory (2005), ch. 4: no matrix is multiplied or inverted after closure.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence

from lgorb import linalg
from lgorb.errors import ClosureCapExceededError, ShapeError, SingularMatrixError
from lgorb.exactnum import CycNum

DEFAULT_CLOSURE_CAP = 2048


class GMatrix:
    """An invertible square matrix of CycNum entries, immutable.

    The determinant is computed on first access and cached; products of
    group elements are never singular, so construction stays cheap.
    Explicit inputs are validated where they enter (generate_closure,
    inverse).
    """

    __slots__ = ("n", "conductor", "rows", "_det", "_hash")

    def __init__(self, rows: Sequence[Sequence[CycNum]], _det: CycNum | None = None):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ShapeError("matrix must be square")
        if n == 0:
            raise ShapeError("empty matrix")
        conductor = rows[0][0].conductor
        if any(e.conductor != conductor for row in rows for e in row):
            raise ShapeError("mixed conductors in one matrix")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_det", _det)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("GMatrix is immutable")

    @classmethod
    def identity(cls, n: int, conductor: int = 1) -> "GMatrix":
        one, zero = CycNum.one(conductor), CycNum.zero(conductor)
        return cls(
            [[one if i == j else zero for j in range(n)] for i in range(n)],
            _det=one,
        )

    @classmethod
    def diagonal(cls, entries: Sequence[CycNum]) -> "GMatrix":
        zero = CycNum.zero(entries[0].conductor)
        n = len(entries)
        return cls([[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def det(self) -> CycNum:
        d = self._det
        if d is None:
            d = linalg.det(self.rows)
            object.__setattr__(self, "_det", d)
        return d

    def is_identity(self) -> bool:
        return all(
            (self.rows[i][j].is_one() if i == j else self.rows[i][j].is_zero())
            for i in range(self.n)
            for j in range(self.n)
        )

    def __mul__(self, other: "GMatrix") -> "GMatrix":
        """The product, each entry summed over its nonzero terms only: no
        term gives zero, one term a single product (or the other factor
        itself when one factor is 1), more terms one fused `CycNum.dot`.
        Values are canonical, so every entry equals the dense sum exactly;
        products by permutation, diagonal and monomial matrices cost no
        field arithmetic beyond their nonzero entries."""
        if not isinstance(other, GMatrix):
            return NotImplemented
        if self.n != other.n or self.conductor != other.conductor:
            raise ShapeError("incompatible matrices")
        cols = [[(k, b) for k, b in enumerate(col) if b] for col in zip(*other.rows)]
        zero = CycNum.zero(self.conductor)
        dot = CycNum.dot
        out = []
        for row in self.rows:
            entries = []
            for col in cols:
                left, right = [], []
                for k, b in col:
                    a = row[k]
                    if a:
                        left.append(a)
                        right.append(b)
                if not left:
                    entries.append(zero)
                elif len(left) > 1:
                    entries.append(dot(left, right))
                else:
                    a, b = left[0], right[0]
                    entries.append(b if a.is_one() else a if b.is_one() else a * b)
            out.append(entries)
        return GMatrix(out)

    def __neg__(self) -> "GMatrix":
        return GMatrix([[-e for e in row] for row in self.rows])

    def require_invertible(self) -> "GMatrix":
        if not self.det:
            raise SingularMatrixError("matrix is singular")
        return self

    def inverse(self) -> "GMatrix":
        return GMatrix(linalg.invert(self.rows))

    def __pow__(self, k: int) -> "GMatrix":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = GMatrix.identity(self.n, self.conductor)
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, GMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.rows)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"GMatrix[{body}]"

    def to_lists(self) -> list[list[dict]]:
        return [[e.to_dict() for e in row] for row in self.rows]

    @classmethod
    def from_lists(cls, data) -> "GMatrix":
        return cls([[CycNum.from_dict(e) for e in row] for row in data])


def fixed_space(g: GMatrix) -> tuple[tuple[tuple[CycNum, ...], ...], tuple[int, ...]]:
    """Columns spanning ker(g - id), in the deterministic reduced-row-echelon
    kernel convention (possibly none), plus their free row indices.

    The rows of the column matrix at the free indices form an identity
    block, which makes restricting a commuting matrix to the fixed space a
    plain row selection.
    """
    one = CycNum.one(g.conductor)
    rows = [
        [g.rows[i][j] - one if i == j else g.rows[i][j] for j in range(g.n)]
        for i in range(g.n)
    ]
    basis, free = linalg.kernel_basis_with_free(rows)
    return tuple(basis), tuple(free)


class ConjugacyData:
    """Conjugacy classes and centralizers of a finite matrix group."""

    __slots__ = ("classes", "centralizers")

    def __init__(self, classes, centralizers):
        self.classes = tuple((rep, tuple(sorted(members))) for rep, members in classes)
        self.centralizers = {rep: tuple(sorted(z)) for rep, z in centralizers.items()}


class FiniteMatrixGroup:
    """An explicitly enumerated finite group of invertible matrices.

    ``generator_tables[k]`` is the right-multiplication permutation of
    generator k, as recorded during closure: entry i is the index of
    ``elements[i] * elements[generator_indices[k]]``.  The generators must
    generate the whole element list; construction raises otherwise.
    """

    def __init__(
        self,
        elements: Sequence[GMatrix],
        generator_indices: Sequence[int],
        generator_tables: Sequence[Sequence[int]],
        words: Optional[Sequence[str]] = None,
    ):
        self.elements = tuple(elements)
        if not self.elements or not self.elements[0].is_identity():
            raise ValueError("element 0 must be the identity")
        self.index = {m: i for i, m in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        self.order = len(self.elements)
        self.generator_indices = tuple(generator_indices)
        self.generator_tables = tuple(tuple(t) for t in generator_tables)
        if len(self.generator_tables) != len(self.generator_indices):
            raise ValueError("need one table per generator")
        self.words = tuple(words) if words is not None else None
        self.n = self.elements[0].n
        self.conductor = self.elements[0].conductor
        self._tree = self._spanning_tree()
        self._right: Optional[list[tuple[int, ...]]] = None
        self._inverse_index: Optional[tuple[int, ...]] = None
        self._conjugacy: Optional[ConjugacyData] = None

    def _spanning_tree(self) -> tuple[tuple[int, int, int], ...]:
        """Breadth-first tree over the generator tables, as (element,
        parent, generator) in discovery order: element = parent * generator.
        Raises unless the generators reach every element."""
        seen = [False] * self.order
        seen[0] = True
        tree = []
        reached = [0]
        for parent in reached:  # reached doubles as the FIFO queue
            for k, table in enumerate(self.generator_tables):
                child = table[parent]
                if not seen[child]:
                    seen[child] = True
                    tree.append((child, parent, k))
                    reached.append(child)
        if len(reached) != self.order:
            raise ValueError("the generators do not generate the element list")
        return tuple(tree)

    def _right_tables(self) -> list[tuple[int, ...]]:
        """Right-multiplication permutation of every element (the Cayley
        table by columns): ``right[j][i]`` is the index of elements[i] *
        elements[j].  Filled along the spanning tree, since
        right[child] = right[parent] followed by the generator's table."""
        if self._right is None:
            right: list = [None] * self.order
            right[0] = tuple(range(self.order))
            for child, parent, k in self._tree:
                right[child] = tuple(map(self.generator_tables[k].__getitem__, right[parent]))
            self._right = right
        return self._right

    # -- basic structure ---------------------------------------------------

    @property
    def generators(self) -> tuple[GMatrix, ...]:
        return tuple(self.elements[i] for i in self.generator_indices)

    def __len__(self):
        return self.order

    def __contains__(self, m: GMatrix) -> bool:
        return m in self.index

    def __iter__(self):
        return iter(self.elements)

    def word_for(self, i: int) -> Optional[str]:
        return self.words[i] if self.words is not None else None

    def element_set(self) -> frozenset:
        return frozenset(self.index)

    def inverse_index(self) -> tuple[int, ...]:
        if self._inverse_index is None:
            self._inverse_index = tuple(col.index(0) for col in self._right_tables())
        return self._inverse_index

    def mul_index(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        return self._right_tables()[j][i]

    def determinants(self) -> tuple[CycNum, ...]:
        return tuple(m.det for m in self.elements)

    def subgroup_generator_indices(self, indices: Sequence[int]) -> list[int]:
        """Greedy small generating set (by index order) for a subgroup given
        as an element index set."""
        return _greedy_generators(indices, self._right_tables().__getitem__)[0]

    # -- conjugacy ---------------------------------------------------------

    def conjugacy(self) -> ConjugacyData:
        if self._conjugacy is None:
            classes = self.class_orbits(range(self.order), self.generator_indices)
            centralizers = {rep: self.centralizer(rep) for rep, _ in classes}
            self._conjugacy = ConjugacyData(classes, centralizers)
        return self._conjugacy

    def class_orbits(
        self, indices: Sequence[int], gens: Sequence[int]
    ) -> list[tuple[int, list[int]]]:
        """(first index, members in discovery order) of each orbit of
        j -> g j g^-1, g running over the generator indices `gens`, on the
        element indices `indices` (a union of orbits, such as a subgroup
        that holds `gens`).  Orbits come in the order of their first index
        in `indices`; over all elements and the group's generators they are
        its conjugacy classes, over Z(g) and its generators those of Z(g)."""
        right = self._right_tables()
        inv = self.inverse_index()
        conjugations = [(g, right[inv[g]]) for g in gens]
        seen = bytearray(self.order)
        orbits = []
        for start in indices:
            if seen[start]:
                continue
            seen[start] = 1
            orbit = [start]
            for j in orbit:  # orbit doubles as the queue
                times_j = right[j]
                for g, times_ginv in conjugations:
                    k = times_ginv[times_j[g]]
                    if not seen[k]:
                        seen[k] = 1
                        orbit.append(k)
            orbits.append((start, orbit))
        return orbits

    def centralizer(self, i: int) -> tuple[int, ...]:
        right = self._right_tables()
        times_i = right[i]
        return tuple(j for j in range(self.order) if times_i[j] == right[j][i])


def _greedy_generators(indices: Sequence[int], right_table) -> tuple[list[int], list]:
    """Greedy small generating set, by index order, of the subgroup with
    the given element indices: each generator is the first index outside
    the subgroup generated by the earlier ones.  ``right_table(i)`` is the
    right-multiplication permutation of element i; returns the generators
    and their tables."""
    seen = {0}
    reached = [0]
    gens: list[int] = []
    tables: list = []
    for i in sorted(indices):
        if i in seen:
            continue
        gens.append(i)
        tables.append(right_table(i))
        for j in reached:  # reached grows while it is walked
            for table in tables:
                k = table[j]
                if k not in seen:
                    seen.add(k)
                    reached.append(k)
    return gens, tables


def _closure(identity, step, count: int, words: Optional[Sequence[str]], cap: int):
    """Breadth-first closure of ``identity`` under ``step(x, k)``, the
    product of x with generator k (k < count).

    Returns the elements in discovery order, each generator's
    right-multiplication table and, when generator words are given, a word
    per element.
    """
    elements = [identity]
    index = {identity: 0}
    tables: list[list[int]] = [[] for _ in range(count)]
    elem_words = ["id"] if words is not None else None
    for current, x in enumerate(elements):  # elements doubles as the FIFO queue
        for k in range(count):
            p = step(x, k)
            j = index.get(p)
            if j is None:
                if len(elements) >= cap:
                    raise ClosureCapExceededError(
                        f"closure exceeded cap {cap}; group not finite or cap too low"
                    )
                j = index[p] = len(elements)
                elements.append(p)
                if elem_words is not None:
                    prefix = "" if elem_words[current] == "id" else elem_words[current]
                    elem_words.append(prefix + words[k])
            tables[k].append(j)
    return elements, tables, elem_words


def generate_closure(
    generators: Sequence[GMatrix],
    cap: int = DEFAULT_CLOSURE_CAP,
    words: Optional[Sequence[str]] = None,
) -> FiniteMatrixGroup:
    """Breadth-first closure of the generators under multiplication.

    Element 0 is the identity; the rest appear in generation order.  When
    generator words are supplied, a word is tracked for every element.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    conductor = generators[0].conductor
    if any(g.n != n or g.conductor != conductor for g in generators):
        raise ShapeError("generators must share dimension and conductor")
    for g in generators:
        g.require_invertible()
    if words is not None and len(words) != len(generators):
        raise ValueError("need one word per generator")
    elements, tables, elem_words = _closure(
        GMatrix.identity(n, conductor),
        lambda m, k: m * generators[k],
        len(generators),
        words,
        cap,
    )
    return FiniteMatrixGroup(elements, [t[0] for t in tables], tables, elem_words)


def from_elements(elements: Sequence[GMatrix]) -> FiniteMatrixGroup:
    """Wrap an already-closed element list (identity moved to the front).

    Generators are picked greedily in index order.  Raises ValueError if
    the list is not closed under multiplication.
    """
    elems = list(dict.fromkeys(elements))
    identity_pos = next((i for i, m in enumerate(elems) if m.is_identity()), None)
    if identity_pos is None:
        raise ValueError("element list does not contain the identity")
    if identity_pos != 0:
        elems.insert(0, elems.pop(identity_pos))
    index = {m: i for i, m in enumerate(elems)}

    def right_table(i: int) -> list[int]:
        g = elems[i]
        try:
            return [index[m * g] for m in elems]
        except KeyError:
            raise ValueError("element list is not closed under multiplication") from None

    gens, tables = _greedy_generators(range(len(elems)), right_table)
    return FiniteMatrixGroup(elems, gens, tables)


def hat_extend(group: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """The central extension {+g, -g}; warns and returns the input unchanged
    if -id is already present.

    The closure walks (sign, index) pairs through the group's generator
    tables, with -id as the last generator, so it multiplies no matrices
    and yields the same elements, words and generator indices as closing
    the generators plus -id.
    """
    minus_id = -GMatrix.identity(group.n, group.conductor)
    if minus_id in group.index:
        warnings.warn("-id already present; group returned unchanged")
        return group
    base_tables = group.generator_tables
    minus = len(base_tables)

    def step(pair, k):
        sign, i = pair
        return (-sign, i) if k == minus else (sign, base_tables[k][i])

    gen_words = None
    if group.words is not None:
        gen_words = [group.words[i] for i in group.generator_indices] + ["-I"]
    pairs, tables, words = _closure((1, 0), step, minus + 1, gen_words, 2 * group.order)
    elements = [group.elements[i] if sign > 0 else -group.elements[i] for sign, i in pairs]
    return FiniteMatrixGroup(elements, [t[0] for t in tables], tables, words)


def groups_conjugate(
    g1: FiniteMatrixGroup, g2: FiniteMatrixGroup, ambient: FiniteMatrixGroup
) -> Optional[GMatrix]:
    """Some h in the ambient group with h G1 h^-1 = G2 (as sets), or None.

    Both groups must lie in the ambient group.  Brute force over the
    ambient elements, by table lookup.
    """
    if g1.order != g2.order:
        return None
    try:
        members = [ambient.index[m] for m in g1.elements]
        target = {ambient.index[m] for m in g2.elements}
    except KeyError:
        raise ValueError("both groups must lie in the ambient group") from None
    right = ambient._right_tables()
    inv = ambient.inverse_index()
    for h in range(ambient.order):
        times_hinv = right[inv[h]]
        if all(times_hinv[right[m][h]] in target for m in members):
            return ambient.elements[h]
    return None
