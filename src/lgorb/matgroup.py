"""Finite matrix groups over cyclotomic fields.

Groups are materialized as explicit element lists with structural
deduplication (exact arithmetic makes hashing sound).  Closure is a
breadth-first walk from the identity, so element order is deterministic:
index 0 is the identity and indices follow generation order.

Closure records each generator's right-multiplication permutation of the
element indices.  All group structure (products, inverses, conjugacy
classes, centralizers, subgroup generators and the -id extension) comes
from those integer tables, as in the permutation-group representation of
Holt, Eick and O'Brien, Handbook of Computational Group Theory (2005),
ch. 4: no matrix is multiplied or inverted after closure.  The walk also
hands over its spanning tree, each element with the parent and generator
that discovered it (a Schreier tree, same chapter).  The tree fills the
right tables and the element words: a group with generator words spells
each element as its parent's word followed by its generator's word, on
first read, and a closure builds no string.

A closure whose generators are all elements of one live group that an
earlier closure built walks that group's right tables instead, and
multiplies no matrix: every catalog group is a subgroup of the order-336
group.  The groups `generate_closure` and `hat_extend` build are held in a
`weakref.WeakSet`, so the registry keeps no group alive that its callers
have dropped.

Matrix entries are interned: `GMatrix` keeps one canonical object per
entry value (`exactnum._entry`), and `GMatrix.__mul__` reads each nonzero
term a*b from the table of entry products keyed by the canonical pair
(`exactnum._entry_product`), so a field product is computed the first
time its pair is seen.  The 336 matrices of the largest catalog group use
57 distinct entries, so closures, conjugations and generator tables repeat
a few hundred entry products instead of computing thousands.  Both tables
live in `lgorb.exactnum` for the whole process, and the symmetry check's
substitutions (`polyring.compose_linear`) read the same product table, so
a generator whose entry pairs a closure has multiplied is substituted
without new field products.  Their memory grows with the distinct entry
values and the entry pairs multiplied.  Clearing either table costs speed
only: values stay canonical, and an entry interned before the clear (a
zero included) is multiplied as an ordinary term.

A power of a matrix starts from its first factor, not from the identity,
so a first power costs no product: the word `S` costs none and `RS^2RS`
four (one square, three joins).
"""

from __future__ import annotations

import warnings
import weakref
from functools import cached_property
from typing import Optional, Sequence

from lgorb import linalg
from lgorb.errors import ClosureCapExceededError, ShapeError, SingularMatrixError
from lgorb.exactnum import CycNum, _entry, _entry_product

DEFAULT_CLOSURE_CAP = 2048

# Every live group that `generate_closure` or `hat_extend` built, held weakly:
# a later closure whose generators all lie in one of them walks its tables.
_CLOSED: "weakref.WeakSet[FiniteMatrixGroup]" = weakref.WeakSet()


class GMatrix:
    """An invertible square matrix of CycNum entries, immutable.

    The determinant is computed on first access and cached; products of
    group elements are never singular, so construction stays cheap.
    Explicit inputs are validated where they enter (generate_closure,
    inverse).  Entries are stored interned (`_entry`): equal entries of
    any matrices are one object.
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
        self._set(tuple(tuple(map(_entry, row)) for row in rows), conductor, _det)

    def _set(self, rows: tuple, conductor: int, det: CycNum | None) -> "GMatrix":
        """Store square tuples of interned entries of one conductor."""
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_det", det)
        object.__setattr__(self, "_hash", None)
        return self

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
        """The product, each entry summed over its nonzero terms only, each
        term read from the table of entry products (`_entry_product`): no
        term gives zero, one term that term, more terms one fused
        `CycNum.add_many`.  Values are canonical, so every entry equals the
        dense `CycNum.dot` exactly; products by permutation, diagonal and
        monomial matrices cost no field arithmetic beyond table lookups."""
        if not isinstance(other, GMatrix):
            return NotImplemented
        if self.n != other.n or self.conductor != other.conductor:
            raise ShapeError("incompatible matrices")
        zero = _entry(CycNum.zero(self.conductor))  # entries are interned
        cols = [[(k, b) for k, b in enumerate(col) if b is not zero] for col in zip(*other.rows)]
        product, add_many = _entry_product, CycNum.add_many
        out = []
        for row in self.rows:
            entries = []
            for col in cols:
                terms = [product(row[k], b) for k, b in col if row[k] is not zero]
                entries.append(
                    _entry(add_many(terms)) if len(terms) > 1 else terms[0] if terms else zero
                )
            out.append(tuple(entries))
        # every entry is interned already, so __init__'s checks are skipped
        return object.__new__(GMatrix)._set(tuple(out), self.conductor, None)

    def __neg__(self) -> "GMatrix":
        return GMatrix([[-e for e in row] for row in self.rows])

    def require_invertible(self) -> "GMatrix":
        if not self.det:
            raise SingularMatrixError("matrix is singular")
        return self

    def inverse(self) -> "GMatrix":
        return GMatrix(linalg.invert(self.rows))

    def __pow__(self, k: int) -> "GMatrix":
        """Square and multiply, starting from the first factor, not the
        identity: a first power is the base itself (no product) and k >= 1
        costs at most 2 log2(k) products."""
        if k == 0:
            return GMatrix.identity(self.n, self.conductor)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        result = None
        while k:
            if k & 1:
                result = base if result is None else result * base
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
    ``elements[i] * generator k``, so ``generator_tables[k][0]`` is the
    generator's own index.  ``tree`` is the spanning tree that the walk
    building the group found, as (element, parent, generator) triples in
    discovery order: element = parent * generator.  It must reach every
    element; construction raises otherwise.
    """

    def __init__(
        self,
        elements: Sequence[GMatrix],
        generator_tables: Sequence[Sequence[int]],
        tree: Sequence[tuple[int, int, int]],
        generator_words: Optional[Sequence[str]] = None,
    ):
        self.elements = tuple(elements)
        if not self.elements or not self.elements[0].is_identity():
            raise ValueError("element 0 must be the identity")
        self.index = {m: i for i, m in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        self.order = len(self.elements)
        self.generator_tables = tuple(tuple(t) for t in generator_tables)
        self.generator_indices = tuple(t[0] for t in self.generator_tables)
        self.generator_words = tuple(generator_words) if generator_words is not None else None
        self._tree = tuple(tree)
        if sorted(child for child, _, _ in self._tree) != list(range(1, self.order)):
            raise ValueError("the generators do not generate the element list")
        self.n = self.elements[0].n
        self.conductor = self.elements[0].conductor
        self._right: Optional[list[tuple[int, ...]]] = None
        self._inverse_index: Optional[tuple[int, ...]] = None
        self._conjugacy: Optional[ConjugacyData] = None

    @cached_property
    def words(self) -> Optional[tuple[str, ...]]:
        """A word per element, read off the tree: the identity's is "id",
        any other element's is its parent's word (empty for the identity)
        followed by its generator's word.  None without generator words."""
        if self.generator_words is None:
            return None
        words = [""] * self.order
        for child, parent, k in self._tree:
            words[child] = words[parent] + self.generator_words[k]
        words[0] = "id"
        return tuple(words)

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

    def inverse_index(self) -> tuple[int, ...]:
        if self._inverse_index is None:
            self._inverse_index = tuple(col.index(0) for col in self._right_tables())
        return self._inverse_index

    def determinants(self) -> tuple[CycNum, ...]:
        return tuple(m.det for m in self.elements)

    def subgroup_generator_indices(self, indices: Sequence[int]) -> list[int]:
        """Greedy small generating set (by index order) for a subgroup given
        as an element index set."""
        return [t[0] for t in _greedy_generators(indices, self._right_tables().__getitem__)[0]]

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


def _greedy_generators(indices: Sequence[int], right_table) -> tuple[list, list]:
    """Greedy small generating set, by index order, of the subgroup with
    the given element indices: each generator is the first index outside
    the subgroup generated by the earlier ones.  ``right_table(i)`` is the
    right-multiplication permutation of element i; returns the generators'
    tables and the spanning tree walked, as in `_closure`."""
    seen = {0}
    reached = [0]
    tables: list = []
    tree: list[tuple[int, int, int]] = []
    for i in sorted(indices):
        if i in seen:
            continue
        tables.append(right_table(i))
        for j in reached:  # reached grows while it is walked
            for t, table in enumerate(tables):
                k = table[j]
                if k not in seen:
                    seen.add(k)
                    reached.append(k)
                    tree.append((k, j, t))
    return tables, tree


def _closure(identity, step, count: int, cap: int):
    """Breadth-first closure of ``identity`` under ``step(x, k)``, the
    product of x with generator k (k < count).

    Returns the elements in discovery order, each generator's
    right-multiplication table and the spanning tree walked, as (element,
    parent, generator) index triples in discovery order.
    """
    elements = [identity]
    index = {identity: 0}
    tables: list[list[int]] = [[] for _ in range(count)]
    tree: list[tuple[int, int, int]] = []
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
                tree.append((j, current, k))
            tables[k].append(j)
    return elements, tables, tree


def generate_closure(
    generators: Sequence[GMatrix], words: Optional[Sequence[str]] = None
) -> FiniteMatrixGroup:
    """Breadth-first closure of the generators under multiplication.

    Element 0 is the identity; the rest appear in generation order.  When
    generator words are supplied, the group spells every element by them.
    More than DEFAULT_CLOSURE_CAP elements raise ClosureCapExceededError.

    When every generator is an element of one live group that an earlier
    closure built (held weakly, so only while its callers keep it), the walk
    follows that group's right tables instead of multiplying matrices: the
    same elements (that group's objects) in the same order, with the same
    words, generator indices and tables.
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
    holder = next((h for h in _CLOSED if all(g in h.index for g in generators)), None)
    if holder is None:
        elements, tables, tree = _closure(
            GMatrix.identity(n, conductor),
            lambda m, k: m * generators[k],
            len(generators),
            DEFAULT_CLOSURE_CAP,
        )
    else:
        right = holder._right_tables()
        steps = [right[holder.index[g]] for g in generators]
        indices, tables, tree = _closure(
            0, lambda i, k: steps[k][i], len(generators), DEFAULT_CLOSURE_CAP
        )
        elements = [holder.elements[i] for i in indices]
    group = FiniteMatrixGroup(elements, tables, tree, words)
    _CLOSED.add(group)
    return group


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

    return FiniteMatrixGroup(elems, *_greedy_generators(range(len(elems)), right_table))


def hat_extend(group: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """The central extension {+g, -g}; warns and returns the input unchanged
    if -id is already present.

    The closure walks (sign, index) pairs through the group's generator
    tables, with -id as the last generator, so it multiplies no matrices
    and yields the same elements, words and generator indices as closing
    the generators plus -id.  The words come from the group's generator
    words plus "-I": a generator that is the identity or repeats an earlier
    one discovers no element, so its word is never read.
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

    words = group.generator_words
    pairs, tables, tree = _closure((1, 0), step, minus + 1, 2 * group.order)
    elements = [group.elements[i] if sign > 0 else -group.elements[i] for sign, i in pairs]
    extended = FiniteMatrixGroup(elements, tables, tree, None if words is None else words + ("-I",))
    _CLOSED.add(extended)
    return extended
