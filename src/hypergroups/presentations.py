"""Partial-operation presentations and their quotients.

A trame is a carrier with a partial univalent operation: a composability
set C of ordered pairs and, on C, a single-valued product. Quotienting by
an equivalence R produces a multivalued table: a class Z lies in X.Y when
some composable pair (u, v) with u in X, v in Y has u.v in Z.

Adequacy is the pair of conditions under which that quotient satisfies
the hypergroup axioms, decided on the quotient's table; invariance of a
coarser equivalence is the saturation identity of its classes, decided
on the quotient's product triples.
"""

from __future__ import annotations

from .core import (
    Frozen,
    Multistructure,
    product_of_sets,
    quotient_table,
    restricted_growth,
    saturation_identity,
    verify_axioms,
)

DEFAULT_TRAME_CAP = 65536


class Trame(Frozen):
    """A partial univalent operation on {0..t_n-1}.

    op maps composable pairs (u, v) to their single product; pairs absent
    from op are not composable. Carriers here may exceed the mask width
    used for multistructures, so relations on trame elements are label
    tuples, never masks. Trames compare by identity.
    """

    __slots__ = _fields = ("names", "op")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def _check(self):
        names, t_n = self.names, len(self.names)
        if t_n < 1:
            raise ValueError("trame carrier must be non-empty")
        if len(set(names)) != t_n or any(not s for s in names):
            raise ValueError("trame element names must be unique and non-empty")
        for (u, v), w in self.op.items():
            if not (0 <= u < t_n and 0 <= v < t_n and 0 <= w < t_n):
                raise ValueError(f"op entry ({u},{v})->{w} out of range")

    @property
    def t_n(self) -> int:
        return len(self.names)


class Presentation(Frozen):
    """A trame together with an equivalence on its carrier, r, the class
    label of each element in restricted-growth form; k, the number of
    classes, is left out of repr. Presentations compare by identity."""

    __slots__ = ("trame", "r", "k")
    _fields = ("trame", "r")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def _check(self):
        r = self.r
        if len(r) != self.trame.t_n:
            raise ValueError("relation must label every trame element")
        if restricted_growth(r) != tuple(r):
            raise ValueError("class labels must be in restricted-growth order")
        object.__setattr__(self, "k", max(r) + 1)


def group_trame(g) -> Trame:
    """A group's full multiplication as a (total) trame."""
    return Trame(g.names, {(x, y): w for x, row in enumerate(g.table) for y, w in enumerate(row)})


def quotient(p: Presentation) -> Multistructure:
    """The multivalued table induced on R-classes by composable products,
    each class named after its least member."""
    return quotient_table(p.trame.names, p.trame.op.items(), p.r)


class AdequacyReport(Frozen):
    __slots__ = _fields = ("reproductive", "associative", "repro_witness", "assoc_witness")
    _defaults = (None, None)

    def __bool__(self) -> bool:
        return self.reproductive and self.associative


def is_adequate(p: Presentation) -> AdequacyReport:
    """The two conditions under which the quotient is a hypergroup.

    Condition (1), reproductivity: the products over X x * and over
    * x X reach every class, for every class X. Condition (2):
    associativity of the induced table. Both are read off
    verify_axioms(quotient(p)), with its first associativity witness;
    the reproductivity witness is (X, Y) for its first failing X and the
    first class Y missing from X's row or column coverage. Raises
    CapExceeded above 64 classes, as quotient does.
    """
    q = quotient(p)
    rep = verify_axioms(q)
    repro_witness = None
    if not rep.reproductive:
        x, full = rep.repro_witness, q.full_mask
        missing = full & ~(product_of_sets(q, 1 << x, full) & product_of_sets(q, full, 1 << x))
        repro_witness = (x, (missing & -missing).bit_length() - 1)
    return AdequacyReport(rep.reproductive, rep.associative,
                          repro_witness, rep.assoc_witness)


def is_invariant_modulo_equiv(t: Trame, r: tuple[int, ...],
                              s: tuple[int, ...]) -> bool:
    """S is invariant modulo R on the trame.

    Requires R to refine S. Writing P.Q for the set of R-classes of
    composable products over an R-class pair, the condition is the
    three-way saturation identity

        satS(P.Q) = union of P.Q' over Q' S-equivalent to Q
                  = union of P'.Q over P' S-equivalent to P

    for every R-class pair, where satS closes a set of R-classes under
    S: S, read on R-classes, is a reflector congruence of the quotient
    by R. This is exactly the requirement that the class-collapsing map
    from the R-quotient onto the S-quotient pulls products back
    coherently; a weaker per-block-constancy reading (the products of
    all R-class pairs within one S-block coincide after collapsing to
    S-classes) admits collapses whose induced map fails that pullback,
    so the saturated form is the one enforced here.
    """
    if len(r) != t.t_n or len(s) != t.t_n:
        raise ValueError("relations must label every trame element")
    r = restricted_growth(r)  # image is read below at the labels 0..k-1
    # refinement: the S-label must be a function of the R-label
    image: dict[int, int] = {}
    for i, lab in enumerate(r):
        if image.setdefault(lab, s[i]) != s[i]:
            return False

    return saturation_identity((((r[u], r[v]), r[w]) for (u, v), w in t.op.items()),
                               [image[lab] for lab in range(len(image))])
