"""Finite multivalued binary structures.

Carriers are index sets {0..n-1}. Subsets of a carrier are plain ints used
as bit masks, so set algebra is word algebra throughout. Element names are
display labels only and never affect semantics.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import reduce
from operator import attrgetter, eq, or_
from typing import Iterable, Iterator, Optional, Sequence

MAX_ELEMENTS = 64  # mask-width contract for carriers


class CapExceeded(Exception):
    """A size cap was exceeded (carrier width, group order, trame size)."""


class ParseError(ValueError):
    """Malformed textual input (structure JSON, trame DSL, partition literals)."""


def check_carrier_size(n: int) -> None:
    """Refuse a carrier wider than the mask width, before building it."""
    if n > MAX_ELEMENTS:
        raise CapExceeded(f"carrier size {n} exceeds mask width {MAX_ELEMENTS}")


class NotAHypergroup(ValueError):
    """Raised when certifying a multistructure that fails an axiom."""

    def __init__(self, report: "AxiomReport"):
        self.report = report
        super().__init__(f"axioms fail: {report.summary()}")


class Frozen:
    """Base of the library's immutable types.

    A subclass names its slots in __slots__ and its parameters in
    _fields. Construction is positional: the values fill _fields in
    order, trailing _defaults fill the rightmost fields left out, and
    then _check validates them or derives a further slot. Assigning or
    deleting a field afterwards raises AttributeError. repr shows the
    fields as Name(field=value, ...), and copy and pickle rebuild an
    instance from them. Values compare and hash over _fields, or over
    the subset a class declares as _compared, and only against an
    instance of the same class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__dict__.get("_compared", cls._fields))
        cls._slots = tuple(s for c in reversed(cls.__mro__) for s in vars(c).get("__slots__", ()))

    def __init__(self, *values):
        fields, defaults = self._fields, self._defaults
        missing = len(fields) - len(values)
        if not 0 <= missing <= len(defaults):
            takes = f"{len(fields) - len(defaults)} to {len(fields)}" if defaults else len(fields)
            raise TypeError(f"{type(self).__qualname__}() takes {takes} positional"
                            f" arguments ({len(values)} given)")
        values += defaults[len(defaults) - missing:]
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self):
        """Validate the fields, or derive a further slot; by default nothing."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    @classmethod
    def _proved(cls, *values):
        """An instance whose checks the caller has already made: values fill
        the inherited slots, then the class's own, in order; _check is not run."""
        obj = object.__new__(cls)
        for name, value in zip(cls._slots, values, strict=True):
            object.__setattr__(obj, name, value)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def members(mask: int) -> tuple[int, ...]:
    if not mask & (mask - 1):  # no bit, or one
        return (mask.bit_length() - 1,) if mask else ()
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def check_mask(mask: int, n: int, error: type = ValueError) -> None:
    """Refuse, with error("range", mask), a subset mask of an n-element
    carrier that has a bit at n or above (it names an element past the
    carrier) or is negative (it has infinitely many members): either way
    mask >> n is not 0."""
    if mask >> n:
        raise error("range", mask)


class Multistructure(Frozen):
    """A finite set with a multivalued binary operation.

    table[x][y] is the bit mask of the product x.y; empty products are 0.
    """

    __slots__ = _fields = ("names", "table")

    def _check(self):
        names, table = self.names, self.table
        n = len(names)
        if n < 1:
            raise ValueError("carrier must be non-empty")
        check_carrier_size(n)
        if len(set(names)) != n or any(not s for s in names):
            raise ValueError("element names must be unique non-empty strings")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table must be n x n")
        if not 0 <= min(map(min, table)) <= max(map(max, table)) < 1 << n:
            raise ValueError("table entry out of range for carrier")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def product_of_sets(m: Multistructure, xmask: int, ymask: int) -> int:
    """Set extension of the operation: union of x.y over x in X, y in Y."""
    check_mask(xmask, m.n)
    check_mask(ymask, m.n)
    out = 0
    table = m.table
    for x in members(xmask):
        row = table[x]
        for y in members(ymask):
            out |= row[y]
    return out


class AxiomReport(Frozen):
    __slots__ = _fields = ("associative", "reproductive", "all_products_nonempty",
                           "assoc_witness", "repro_witness", "empty_witness")
    _defaults = (None, None, None)

    @property
    def is_hypergroup(self) -> bool:
        return self.associative and self.reproductive and self.all_products_nonempty

    def summary(self) -> str:
        bad = []
        if not self.associative:
            bad.append(f"associativity at {self.assoc_witness}")
        if not self.reproductive:
            bad.append(f"reproductivity at {self.repro_witness}")
        if not self.all_products_nonempty:
            bad.append(f"empty product at {self.empty_witness}")
        return "; ".join(bad) if bad else "all axioms hold"


def verify_axioms(m: Multistructure) -> AxiomReport:
    """Check associativity, reproductivity and non-empty products.

    Each failed axiom reports the lexicographically first witness
    (triples (x,y,z) for associativity, x for reproductivity, pairs (x,y)
    for empty products). Each scan yields its failures in index order,
    and the report takes the first, which stops the scan.

    Associativity compares, for each pair (x, y), the row of (x.y).z with
    the row of x.(y.z) over all z. Each set product is computed once per
    distinct mask: the row L.z over z once per distinct product L = x.y,
    and x.M once per distinct product M = y.z for the current x. Dense
    tables have few distinct products and sparse ones have cheap ones.
    """
    n = m.n
    full = m.full_mask
    table = m.table

    def assoc_failures() -> Iterator[tuple[int, int, int]]:
        left_rows: dict[int, list[int]] = {}  # L -> [L.z for z]
        for x in range(n):
            tx = table[x]
            right: dict[int, int] = {}  # M -> x.M
            for y in range(n):
                left = tx[y]
                lrow = left_rows.get(left)
                if lrow is None:
                    lrow = [0] * n
                    for l in members(left):
                        lrow = [a | b for a, b in zip(lrow, table[l])]
                    left_rows[left] = lrow
                rrow = []
                for mid in table[y]:
                    r = right.get(mid)
                    if r is None:
                        r = 0
                        for v in members(mid):
                            r |= tx[v]
                        right[mid] = r
                    rrow.append(r)
                if rrow != lrow:
                    yield x, y, next(z for z in range(n) if rrow[z] != lrow[z])

    assoc_witness = next(assoc_failures(), None)
    repro_witness = next((x for x, row, col in zip(range(n), table, zip(*table))
                          if reduce(or_, row) != full or reduce(or_, col) != full), None)
    empty_witness = next(((x, row.index(0)) for x, row in enumerate(table) if 0 in row), None)
    return AxiomReport(assoc_witness is None, repro_witness is None, empty_witness is None,
                       assoc_witness, repro_witness, empty_witness)


class Hypergroup(Multistructure):
    """A multistructure that passes verify_axioms; construction raises
    NotAHypergroup, with the failing report, on a table that does not."""

    __slots__ = ()

    def _check(self):
        super()._check()
        report = verify_axioms(self)
        if not report.is_hypergroup:
            raise NotAHypergroup(report)

    @classmethod
    def certify(cls, m: Multistructure) -> "Hypergroup":
        return cls(m.names, m.table)

    @property
    def m(self) -> Multistructure:
        """The plain table."""
        return Multistructure(self.names, self.table)


def opposite(m: Multistructure) -> Multistructure:
    """Transpose the operation: x.y in the opposite is y.x in m."""
    return Multistructure(m.names, tuple(zip(*m.table)))


def is_group(m: Multistructure) -> bool:
    """True when every product is a singleton (a univalent hypergroup).

    Only meaningful on structures that already pass verify_axioms.
    """
    return all(e.bit_count() == 1 for row in m.table for e in row)


def power(h: Multistructure, x: int, k: int) -> int:
    """Left-folded k-th power: x.x.....x with k factors, as a mask."""
    if k < 1:
        raise ValueError("power needs k >= 1")
    acc = 1 << x
    for _ in range(k - 1):
        acc = product_of_sets(h, acc, 1 << x)
    return acc


def products(m: Multistructure) -> Iterator[tuple[tuple[int, int], int]]:
    """The table as product triples ((x, y), w), one per w in x.y, row-major."""
    return (((x, y), w) for x, row in enumerate(m.table)
            for y, e in enumerate(row) for w in members(e))


def saturation_identity(prods: Iterable[tuple[tuple[int, int], int]],
                        class_of: Sequence[int]) -> bool:
    """sat(x.y) = x.[y] = [x].y at every pair, for the table whose product
    triples ((x, y), w) are prods, over the carrier that class_of labels.

    sat closes a subset under the classes; a pair with no triple has an
    empty product. For each row x and class C of columns, the products
    x.y with y in C are all empty, or all non-empty, meeting the same
    classes and together filling exactly those classes; likewise for
    each column against the classes of rows. Sets, not masks: the
    carrier may have any width, and the work grows with the triples.
    """
    size = Counter(class_of)
    cells: dict[tuple[int, int], set[int]] = {}
    for xy, w in prods:
        cells.setdefault(xy, set()).add(w)
    for side in (0, 1):
        lines: dict[tuple[int, int], list[set[int]]] = {}
        for xy, ws in cells.items():
            lines.setdefault((xy[side], class_of[xy[1 - side]]), []).append(ws)
        for (_, c), sets in lines.items():
            if len(sets) != size[c]:
                return False
            met = {class_of[w] for w in sets[0]}
            if (any({class_of[w] for w in ws} != met for ws in sets)
                    or len(set().union(*sets)) != sum(size[k] for k in met)):
                return False
    return True


def is_reflector(dom: Multistructure, cod: Multistructure, image: Sequence[int]) -> bool:
    """Whether the map image[x] = f(x) from dom to cod is surjective and
    its four pulled-back product sets coincide.

    For all x, y the sets f^-1 f(x.y), f^-1(f(x).f(y)), x.f^-1 f(y) and
    f^-1 f(x).y must be equal. f^-1 is injective on the subsets of a
    surjection's codomain, so the first two agree exactly when f is a
    morphism; the other three are the saturation identity of the fibres.
    """
    if len(image) != dom.n:
        raise ValueError("image must assign every domain element")
    if any(not (0 <= v < cod.n) for v in image):
        raise ValueError("image value out of codomain range")
    bits = [1 << v for v in image]
    return (len(set(image)) == cod.n
            and all(reduce(or_, map(bits.__getitem__, members(e)), 0)
                    == cod.table[image[x]][image[y]]
                    for x, row in enumerate(dom.table) for y, e in enumerate(row))
            and saturation_identity(products(dom), image))


def _invariants(m: Multistructure) -> Iterator[tuple]:
    roots = Counter(w for y, row in enumerate(m.table) for w in members(row[y]))
    for x, row, col in zip(range(m.n), m.table, zip(*m.table)):
        # x.x, p.x, ... up to a power holding x or repeating
        sizes, p, last = [], row[x], -1
        while len(sizes) < len(row) and not p >> x & 1 and p != last:
            sizes.append(p.bit_count())
            p, last = reduce(or_, map(col.__getitem__, members(p)), 0), p
        yield (tuple(sorted(map(int.bit_count, row))), tuple(sorted(map(int.bit_count, col))),
               roots[x], sum(map(eq, row, col)), *sizes, p.bit_count())


def find_isomorphism(a: Multistructure, b: Multistructure) -> Optional[tuple[int, ...]]:
    """Search for a bijection g with g(x.y) = g(x).g(y), or None.

    Backtracking assigns domain elements in index order and tries codomain
    candidates in index order, so the result is the first bijection in
    lexicographic backtracking order. Candidates are pruned by per-element
    invariants that g keeps (sorted row/column product-size profiles, the
    number of y with x in y.y, the number of y with x.y = y.x, and the
    sizes of x.x, (x.x).x, ..., on a group the order of x) and by the
    morphism condition cut to the assigned prefix and its image, which on
    the whole carrier makes g an isomorphism. The search yields the
    bijections in that order, and taking the first stops it.
    """
    n = a.n
    if n != b.n:
        return None
    inv_a, inv_b = (list(_invariants(m)) for m in (a, b))
    if sorted(inv_a) != sorted(inv_b):
        return None
    candidates = [tuple(v for v in range(n) if inv_b[v] == inv_a[x]) for x in range(n)]
    ta, tb = a.table, b.table
    g, bit = [0] * n, [0] * n  # bit[z] = 1 << g[z] for z in dom

    def consistent(k: int, dom: int, cod: int) -> bool:
        # g maps each product with k, cut to dom, onto its image cut to cod;
        # then k lies in each older product as g(k) lies in its image
        v = g[k]
        for p in range(k + 1):
            for m, e in ((ta[p][k] & dom, tb[g[p]][v]), (ta[k][p] & dom, tb[v][g[p]])):
                img, m = (cod, 0) if m == dom else (0, m)  # dom maps onto cod
                while m:
                    low = m & -m
                    img, m = img | bit[low.bit_length() - 1], m ^ low
                if img != e & cod:
                    return False
        for p in range(k):
            ap, bp = ta[p], tb[g[p]]
            for q in range(k):
                if (ap[q] >> k & 1) != (bp[g[q]] >> v & 1):
                    return False
        return True

    def assign(k: int, dom: int, cod: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(g)
            return
        dom |= 1 << k
        for v in candidates[k]:
            if not cod >> v & 1:
                g[k], bit[k] = v, 1 << v
                if consistent(k, dom, cod | bit[k]):
                    yield from assign(k + 1, dom, cod | bit[k])

    found = next(assign(0, 0, 0), None)
    del assign  # assign names itself: a cycle that would hold g, bit and both tables
    return found


def restricted_growth(labels: Iterable) -> tuple[int, ...]:
    """Renumber labels by first occurrence (the first is 0, each new one
    the previous maximum plus one); builds no masks, so any size works."""
    seen: dict = {}
    return tuple(seen.setdefault(lab, len(seen)) for lab in labels)


def block_labels(names: Sequence, blocks: Iterable, noun: str = "blocks") -> tuple[int, ...]:
    """Restricted-growth labels of the partition of names into blocks of
    names; a ParseError for a name not in names or in two blocks, and one
    listing the names in no block, which it says are missing from noun."""
    index = {s: i for i, s in enumerate(names)}
    labels = [-1] * len(names)
    for b, block in enumerate(blocks):
        for s in block:
            if s not in index:
                raise ParseError(f"unknown element name {s!r} in partition")
            if labels[index[s]] != -1:
                raise ParseError(f"element {s!r} in two blocks")
            labels[index[s]] = b
    missing = [str(names[i]) for i, lab in enumerate(labels) if lab == -1]
    if missing:
        raise ParseError(f"partition elements missing from {noun}: " + " ".join(missing))
    return restricted_growth(labels)


def quotient_table(names: Sequence[str],
                   products: Iterable[tuple[tuple[int, int], int]],
                   labels: Sequence[int]) -> Multistructure:
    """The table induced on classes: the class of w lies in [u].[v] for
    every product ((u, v), w); a multivalued product is one such triple
    per member.

    labels are in restricted-growth order, so the first element met with
    each label is its class's least member, whose name the class takes.
    Refuses more than 64 classes before building.
    """
    k = max(labels) + 1
    check_carrier_size(k)
    class_names: list[str] = []
    for name, lab in zip(names, labels):
        if lab == len(class_names):
            class_names.append(name)
    table = [[0] * k for _ in range(k)]
    for (u, v), w in products:
        table[labels[u]][labels[v]] |= 1 << labels[w]
    return Multistructure(tuple(class_names), tuple(tuple(row) for row in table))


class EquivalenceRelation(Frozen):
    """An equivalence on {0..n-1}, stored as canonical class labels.

    class_of uses restricted-growth labeling: class indices appear in the
    order of their first occurrence (class_of[0] == 0, each new label is
    the previous maximum plus one). class_masks, the classes as masks, is
    derived from it and left out of ==, hash and repr. _proved(class_of,
    class_masks) skips the restricted-growth check and the mask build.
    """

    __slots__ = ("class_of", "class_masks")
    _fields = ("class_of",)

    def _check(self):
        class_of = self.class_of
        if not class_of:
            raise ValueError("relation over an empty carrier")
        if restricted_growth(class_of) != tuple(class_of):
            raise ValueError("class labels must be in restricted-growth order")
        masks = [0] * (max(class_of) + 1)
        for i, lab in enumerate(class_of):
            masks[lab] |= 1 << i
        object.__setattr__(self, "class_masks", tuple(masks))

    @property
    def n(self) -> int:
        return len(self.class_of)

    @property
    def k(self) -> int:
        return len(self.class_masks)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "EquivalenceRelation":
        """Relabel an arbitrary labeling into canonical form."""
        return cls(restricted_growth(labels))

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "EquivalenceRelation":
        """The partition of {0..n-1} into blocks, refused as block_labels refuses."""
        return cls(block_labels(range(n), blocks))

    def class_mask(self, x: int) -> int:
        return self.class_masks[self.class_of[x]]

    def sat(self, mask: int) -> int:
        """Union of the classes meeting mask."""
        out = 0
        for cm in self.class_masks:
            if cm & mask:
                out |= cm
        return out

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(members(cm) for cm in self.class_masks)


# --- canonical JSON form ---------------------------------------------------


def to_json(m: Multistructure) -> str:
    """Canonical JSON: fixed key order, product entries in carrier order,
    no whitespace. A compact array is its elements' texts joined by commas,
    so each name is encoded once and each distinct product's text built once."""
    names = [json.dumps(s) for s in m.names]
    texts = {e: "[" + ",".join([names[z] for z in members(e)]) + "]"
             for e in set().union(*m.table)}
    rows = ",".join(["[" + ",".join(map(texts.__getitem__, row)) + "]" for row in m.table])
    return '{"elements":[%s],"table":[%s]}' % (",".join(names), rows)


_space = json.decoder.WHITESPACE.match  # JSON whitespace, compiled by json itself
_decode = json.JSONDecoder().raw_decode


def _past(text: str, pos: int, *tokens: str) -> int:
    """The position past tokens read from pos, each with any JSON
    whitespace around it; a ValueError where the text holds other data."""
    for token in tokens:
        pos = _space(text, pos).end()
        if not text.startswith(token, pos):
            raise ValueError("layout")
        pos += len(token)
    return _space(text, pos).end()


def _table_rows(text: str, pos: int) -> Iterator:
    """The rows of the "table" that follows "elements" at pos, decoded one
    at a time, ending once the closing brackets and the end of the text
    are checked; a ValueError where the text leaves to_json's layout."""
    pos = _past(text, pos, ",", '"table"', ":", "[")
    while True:
        row, pos = _decode(text, pos)
        yield row
        pos = _space(text, pos).end()
        if text.startswith("]", pos):
            break
        pos = _past(text, pos, ",")
    if _past(text, pos, "]", "}") != len(text):
        raise ValueError("layout")


def _structure(names, rows) -> Multistructure:
    """The structure of decoded "elements" and "table" values; rows may
    also be an iterator that decodes the rows one at a time. Each distinct
    entry is converted once."""
    if (not isinstance(names, list) or not names
            or any(not isinstance(s, str) for s in names)):
        raise ParseError('"elements" must be a non-empty list of strings')
    if len(set(names)) != len(names):
        raise ParseError("duplicate element name")
    n = len(names)
    check_carrier_size(n)
    wrong_count = ParseError(f"table must have {n} rows")
    if not isinstance(rows, Iterator) and (not isinstance(rows, list) or len(rows) != n):
        raise wrong_count
    index = {s: 1 << i for i, s in enumerate(names)}
    masks: dict[tuple, int] = {}  # an entry's names -> its mask
    table = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"table row {i} must have {n} entries")
        out_row = []
        for j, entry in enumerate(row):
            if not isinstance(entry, list):
                raise ParseError(f"table entry ({i},{j}) must be a list of names")
            key = tuple(entry)
            try:
                mask = masks[key]
            except (KeyError, TypeError):  # not met yet, or holding a list or object
                mask = 0
                for s in entry:
                    if not isinstance(s, str) or s not in index:
                        raise ParseError(f"unknown element name {s!r} in entry ({i},{j})")
                    mask |= index[s]
                masks[key] = mask
            out_row.append(mask)
        table.append(tuple(out_row))
    if len(table) != n:
        raise wrong_count
    return Multistructure(tuple(names), tuple(table))


def from_json(text: str) -> Multistructure:
    """Read the canonical JSON form.

    A text laid out as to_json writes it, up to JSON whitespace, is read
    one row at a time: the names, then each row of the table, turned into
    masks before the next row is decoded. A carrier wider than the mask
    width is refused once its names are checked. Any other text (keys in
    another order or repeated, a fault, invalid JSON) is decoded whole, for
    json's own message or the first fault in the order keys, names, row
    count, rows.
    """
    try:
        names, pos = _decode(text, _past(text, 0, "{", '"elements"', ":"))
        return _structure(names, _table_rows(text, pos))
    except (ValueError, RecursionError):
        pass  # decoded whole below
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict) or set(obj) != {"elements", "table"}:
        raise ParseError('structure JSON needs exactly the keys "elements" and "table"')
    return _structure(obj["elements"], obj["table"])
