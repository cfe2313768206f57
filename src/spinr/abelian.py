"""Exact arithmetic for finitely generated abelian groups.

A group is stored with a *fixed ordered generating set*: first the free
generators, then one generator per torsion order.  Nothing is ever put
into a canonical form behind the caller's back, because the whole point
of this module is bookkeeping of distinguished fundamental-group
generators.  All arithmetic is integer-exact; membership questions are
settled by Smith-style row reduction of integer matrices, never by
floating point.

>>> Z = FgAbGroup(1, (), ("t",))
>>> Z2 = cyclic(2)
>>> f = AbHom(Z, Z2, (Z2.elem([5]),))   # reduction mod 2
>>> f.apply(Z.elem([3])).coords
(1,)
"""

from __future__ import annotations

from _collections import _tuplegetter


class DomainMismatchError(ValueError):
    """Elements or homomorphisms combined or compared over different groups."""


class Record(tuple):
    """A read-only tuple with named fields, the base of every spinr record.

    A subclass names its fields once, as the parameters of its own
    ``__new__``, which builds the tuple; each field is read by the C getter
    that ``collections.namedtuple`` installs.  Records compare and hash as
    tuples and print as ``Type(field=value, ...)``.  namedtuple is not used
    because it compiles every class's ``__new__`` with ``eval`` at import.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, None))

    def __repr__(self):
        body = ", ".join([f"{n}={v!r}" for n, v in zip(self._fields, self)])
        return f"{type(self).__name__}({body})"

    def __getnewargs__(self):  # copy and pickle call __new__ with the fields
        return tuple(self)


# an unchecked record's __new__ returns _new(cls, fields): bound once, a
# global is found faster than tuple.__new__ on each call
_new = tuple.__new__


class FgAbGroup:
    """Finitely generated abelian group with labelled generators.

    Generator i has order ``orders[i]``, with 0 marking an
    infinite-order (free) generator; the usual constructor lists the
    free generators first, but products keep factor order, so free and
    torsion generators may interleave.  Two groups compare equal when
    they have the same presentation: the same orders and the same
    labels, in order.  That is not isomorphism: Z6 and Z2 x Z3 compare
    unequal.  Element arithmetic needs only :meth:`same_presentation`,
    which compares the orders.
    """

    __slots__ = ("orders", "labels")

    def __init__(self, free_rank=0, torsion_orders=(), labels=(), *, orders=None):
        if orders is None:
            if free_rank < 0:
                raise ValueError(f"free rank must be >= 0, got {free_rank}")
            orders = (0,) * free_rank + tuple(torsion_orders)
        orders = tuple(int(d) for d in orders)
        for d in orders:
            if d == 1 or d < 0:
                raise ValueError(f"torsion order must be >= 2, got {d}")
        labels = tuple(labels) or tuple(f"g{i}" for i in range(len(orders)))
        if len(labels) != len(orders):
            raise ValueError(f"{len(labels)} labels for {len(orders)} generators")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, *args):
        raise AttributeError("FgAbGroup is immutable")

    def __reduce__(self):  # copy and pickle rebuild it; setting its slots raises
        return FgAbGroup, (0, self.orders, self.labels)

    def __repr__(self):
        return f"FgAbGroup(orders={self.orders}, labels={self.labels})"

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.orders if d == 0)

    @property
    def torsion_orders(self) -> tuple[int, ...]:
        return tuple(d for d in self.orders if d)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.orders == other.orders and self.labels == other.labels

    def __hash__(self):
        return hash((self.orders, self.labels))

    def same_presentation(self, other: FgAbGroup) -> bool:
        """Coordinate-compatible equality: the ordered order-lists match."""
        return self.orders == other.orders

    def reduce(self, coords) -> tuple[int, ...]:
        return tuple([int(c) % d if d else int(c)
                      for d, c in zip(self.orders, coords, strict=True)])

    def elem(self, coords) -> AbElem:
        # reduce has checked the length and reduced every coordinate, which
        # is all that AbElem.__new__ would check again
        return tuple.__new__(AbElem, (self, self.reduce(coords)))

    def zero(self) -> AbElem:
        return self.elem([0] * self.rank)

    def generator(self, i: int) -> AbElem:
        coords = [0] * self.rank
        coords[i] = 1
        return self.elem(coords)

    def generators(self) -> list[AbElem]:
        return [self.generator(i) for i in range(self.rank)]

    def describe(self) -> str:
        parts = ["Z" if d == 0 else f"Z{d}" for d in self.orders]
        return " x ".join(parts) if parts else "0"


def cyclic(order: int, label: str = "g") -> FgAbGroup:
    """Z for order 0, Z/order otherwise."""
    if order == 0:
        return FgAbGroup(1, (), (label,))
    return FgAbGroup(0, (order,), (label,))


class AbElem(Record):
    """Element of an FgAbGroup, stored as one integer per generator."""

    __slots__ = ()

    def __new__(cls, group: FgAbGroup, coords: tuple[int, ...]):
        if len(coords) != group.rank:
            raise ValueError(f"{len(coords)} coordinates in a rank-{group.rank} group")
        if coords != group.reduce(coords):
            raise ValueError(f"coordinates {coords} not reduced")
        return tuple.__new__(cls, (group, coords))

    def __add__(self, other: AbElem) -> AbElem:
        self._check_ambient(other)
        return self.group.elem([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> AbElem:
        return self.group.elem([-c for c in self.coords])

    def scale(self, k: int) -> AbElem:
        return self.group.elem([k * c for c in self.coords])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check_ambient(self, other: AbElem):
        if not self.group.same_presentation(other.group):
            raise DomainMismatchError("elements of different groups")

    def describe(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class AbHom(Record):
    """Homomorphism determined by the images of the domain generators.

    Well-definedness (d * image = 0 for a domain generator of order d)
    is checked at construction so that invalid maps cannot circulate.
    """

    __slots__ = ()

    def __new__(
        cls, domain: FgAbGroup, codomain: FgAbGroup, images: tuple[AbElem, ...]
    ):
        _check_image_count(domain, len(images))
        for img in images:
            if not img.group.same_presentation(codomain):
                raise DomainMismatchError("image outside the codomain")
        _check_well_defined(domain, codomain, [img.coords for img in images])
        return tuple.__new__(cls, (domain, codomain, images))

    @classmethod
    def from_coords(cls, domain: FgAbGroup, codomain: FgAbGroup, values) -> AbHom:
        """``AbHom(domain, codomain, images)`` for the images of
        :func:`cyclic_images`, with the same checks made on integers."""
        coords = cyclic_images(domain, codomain, values)
        images = tuple([tuple.__new__(AbElem, (codomain, c)) for c in coords])
        return tuple.__new__(cls, (domain, codomain, images))

    def apply(self, x: AbElem) -> AbElem:
        if not x.group.same_presentation(self.domain):
            raise DomainMismatchError("element not in the domain")
        out = self.codomain.zero()
        for c, img in zip(x.coords, self.images):
            out = out + img.scale(c)
        return out


def _check_image_count(domain: FgAbGroup, n: int):
    if n != domain.rank:
        raise ValueError(f"{n} images for {domain.rank} generators")


def _check_well_defined(domain: FgAbGroup, codomain: FgAbGroup, coords):
    """Refuse a generator of order d whose image, given by its reduced
    ``coords``, has d * image != 0 in the codomain."""
    orders = codomain.orders
    for label, d, c in zip(domain.labels, domain.orders, coords):
        if d and any(d * x % n if n else x for x, n in zip(c, orders)):
            raise ValueError(
                f"generator {label} has order {d} but {d} * {c} != 0 in the codomain"
            )


def cyclic_images(domain: FgAbGroup, codomain: FgAbGroup, values) -> list[tuple]:
    """The reduced coordinates of ``codomain.elem([v] * codomain.rank)`` for
    each of ``values``, refused as :class:`AbHom` refuses them: generator i
    goes to ``values[i]`` times the one generator of ``codomain``, or to 0
    when it has none."""
    _check_image_count(domain, len(values))
    if not codomain.orders:
        return [()] * len(values)
    (n,) = codomain.orders
    coords = [(v % n,) for v in values] if n else [(v,) for v in values]
    for d, (c,) in zip(domain.orders, coords):
        if d and (d * c % n if n else c):
            _check_well_defined(domain, codomain, coords)  # raises its message
    return coords


def direct_product(
    a: FgAbGroup, b: FgAbGroup, prefixes: tuple[str, str] = ("1", "2")
) -> FgAbGroup:
    """Product group, coordinates in factor order; generator labels are
    prefixed by factor."""
    labels = tuple(f"{prefixes[0]}.{s}" for s in a.labels) + tuple(
        f"{prefixes[1]}.{s}" for s in b.labels
    )
    return FgAbGroup(orders=a.orders + b.orders, labels=labels)


class Subgroup(Record):
    """Subgroup of an ambient group given by a finite generating list."""

    __slots__ = ()

    def __new__(cls, ambient: FgAbGroup, generators: tuple[AbElem, ...]):
        for g in generators:
            if not g.group.same_presentation(ambient):
                raise ValueError("subgroup generator outside the ambient group")
        return tuple.__new__(cls, (ambient, generators))

    def describe(self) -> str:
        gens = ", ".join(g.describe() for g in self.generators)
        return f"<{gens}> in {self.ambient.describe()}"


# --- integer linear algebra -------------------------------------------------

def smith_diagonalize(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Reduce an integer matrix to diagonal form by unimodular row and
    column operations.

    Returns ``(U, D)`` with ``D = U @ A @ V`` diagonal for some
    unimodular V that is not tracked (solvability of A y = x only needs
    the left transform).  Diagonal entries are not forced into
    divisibility order; membership tests do not need it.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    D = [list(map(int, r)) for r in rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def add_row(i, j, q):  # row i += q * row j
        D[i] = [a + q * b for a, b in zip(D[i], D[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]

    def add_col(i, j, q):  # col i += q * col j
        for r in D:
            r[i] += q * r[j]

    t = 0
    while t < m and t < n:
        pivot = next(
            ((i, j) for i in range(t, m) for j in range(t, n) if D[i][j] != 0),
            None,
        )
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # Pivot swaps strictly shrink |D[t][t]|, so the passes
            # below are entered finitely often.
            for i in range(t + 1, m):
                while D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    add_row(i, t, -q)
                    if D[i][t] != 0:
                        swap_rows(i, t)
            # Clearing the row can only dirty the column again through
            # a pivot swap, hence the outer loop.
            for j in range(t + 1, n):
                while D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    add_col(j, t, -q)
                    if D[t][j] != 0:
                        swap_cols(j, t)
            if all(D[i][t] == 0 for i in range(t + 1, m)):
                break
        t += 1
    return U, D


def _solve_diophantine(columns: list[list[int]], target: list[int]) -> bool:
    """Does an integer combination of the columns equal the target?"""
    m = len(target)
    if not columns:
        return all(c == 0 for c in target)
    rows = [[col[i] for col in columns] for i in range(m)]
    U, D = smith_diagonalize(rows)
    b = [sum(U[i][k] * target[k] for k in range(m)) for i in range(m)]
    n = len(columns)
    for i in range(m):
        d = D[i][i] if i < n else 0
        if d == 0:
            if b[i] != 0:
                return False
        elif b[i] % d != 0:
            return False
    return True


def _relation_columns(g: FgAbGroup) -> list[list[int]]:
    cols = []
    for j, d in enumerate(g.orders):
        if d:
            col = [0] * g.rank
            col[j] = d
            cols.append(col)
    return cols


def contains(s: Subgroup, x: AbElem) -> bool:
    """Exact membership of x in the span of s's generators.

    Solved as an integer linear system with the ambient torsion
    relations adjoined as extra columns, via Smith-style reduction.

    >>> ZZ = FgAbGroup(2, (), ("a", "b"))
    >>> s = Subgroup(ZZ, (ZZ.elem([1, 1]), ZZ.elem([1, -1])))
    >>> contains(s, ZZ.elem([3, 5]))
    True
    >>> contains(s, ZZ.elem([1, 0]))
    False
    """
    if not x.group.same_presentation(s.ambient):
        raise DomainMismatchError("element not in the ambient group")
    columns = [list(g.coords) for g in s.generators]
    columns += _relation_columns(s.ambient)
    return _solve_diophantine(columns, list(x.coords))


def mod2(g: FgAbGroup) -> AbHom:
    """Canonical reduction onto the largest elementary-2 quotient.

    Free generators each hit their own Z2 factor; a torsion generator
    of even order hits its own factor; odd-torsion generators die.
    """
    targets = []
    positions: dict[int, int] = {}
    for i, d in enumerate(g.orders):
        if d == 0 or d % 2 == 0:
            positions[i] = len(targets)
            targets.append(g.labels[i])
    codomain = FgAbGroup(0, (2,) * len(targets), tuple(f"{s}_mod2" for s in targets))
    images = []
    for i in range(g.rank):
        coords = [0] * len(targets)
        if i in positions:
            coords[positions[i]] = 1
        images.append(codomain.elem(coords))
    # each image is 0 or one Z2 generator, hit only from a generator of
    # order 0 or of even order: well defined by construction
    return tuple.__new__(AbHom, (g, codomain, tuple(images)))
