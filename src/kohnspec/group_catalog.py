"""Catalog of finite unitary groups acting on odd spheres.

Every group is stored as a list of conjugacy-compressed classes: pairs of an
eigenvalue-angle tuple and a multiplicity.  An angle is a ``Fraction`` t in
[0, 1) standing for the unit complex number exp(2*pi*i*t); this is the only
piece of data the character machinery ever needs.

Families covered, with their canonical spec strings:

    cyclic:m        cyclic subgroup of SU(2), order m
    lens:m:q1,..,qn diagonal cyclic subgroup of U(n), order m
    bindih:2m       binary dihedral group of order 4m   (m >= 2)
    2T / 2O / 2I    binary tetrahedral / octahedral / icosahedral groups
    <base>xC:l      central product of an SU(2) family with scalars of order l
    qsemi:l         image in U(2) of the quaternion-by-cyclic semidirect
                    product with twist order 18l       (l odd)
    cycsemi:m:l     image in U(2) of the cyclic-by-cyclic semidirect product
                    of Z/2mZ with twist order 4l       (m odd, l even, coprime)

The two semidirect families are enumerated by exact worklist closure of their
generators inside SU(2) x U(1), then pushed down along the multiplication
double cover to U(2).  The SU(2) part is rational: the quaternion generators
i, j and (1+i+j+k)/2 of qsemi generate the binary tetrahedral group, whose
24 elements are the Hurwitz units with every coordinate in Z/2, and cycsemi
keeps its cyclic part as an exact angle.  That part is closed once, with
Fraction arithmetic, into a table of right products by the generators over
the group it generates together with -1.  The pairs are then closed over
integers, and this integer image is exact: an element is its index in that
table, numbered in the order the elements sort, and a phase is its
numerator over P = 2 lcm(generator phase denominators), since every sum of
generator phases and the kernel's 1/2 is a multiple of 1/P.  Canonicalising
modulo (-1, +1/2) is then an index swap and an addition mod P.  2O and 2I
are stored as class lists and never go through closure.

Every family also stores exact generator matrices, which only the brute-force
oracle reads.  An entry is a finite sum of c * exp(2*pi*i*t) with c a
``Fraction`` and t an angle, held as a tuple of (c, t) terms.  The irrational
quaternion components of 2O and 2I are such sums too: cos(pi/4) =
(z8 + z8^-1)/2, phi/2 = (1 + z5 + z5^4)/2 and 1/(2 phi) = (z5 + z5^4)/2, with
zk = exp(2*pi*i/k) and phi the golden ratio.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Iterable, NamedTuple, Sequence

from .errors import ConstraintError, NonFreeAction, SizeLimit, TraceLookupError

Angle = Fraction

ZERO = Fraction(0)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

# largest group order a constructor builds: each element costs a class
# tuple, and make_cyclic(10**5) already takes about 1.7 s
MAX_ORDER = 10**5

# exact generator data: an entry is a sum of c * exp(2*pi*i*t) over its
# (c, t) terms; a matrix is a tuple of rows of entries
Cyclotomic = tuple[tuple[Fraction, Angle], ...]
ExactMatrix = tuple[tuple[Cyclotomic, ...], ...]


def angle(numerator: int, denominator: int = 1) -> Angle:
    """Exact angle numerator/denominator, reduced mod one full turn."""
    return Fraction(numerator, denominator) % 1


def angle_str(a: Angle) -> str:
    return f"{a.numerator}/{a.denominator}"


def _require_order(name: str, order: int) -> None:
    """Raise SizeLimit before any class list is built if order exceeds the
    order budget."""
    if order > MAX_ORDER:
        raise SizeLimit(f"{name} has order {order}, above the budget of {MAX_ORDER}")


class ConjugacyClass(NamedTuple):
    angles: tuple[Angle, ...]
    mult: int


class FreeActionReport(NamedTuple):
    free: bool
    witness: ConjugacyClass | None


def _merge_classes(classes: Iterable[tuple[Sequence[Angle], int]]) -> tuple[ConjugacyClass, ...]:
    counts: Counter[tuple[Angle, ...]] = Counter()
    for angles, mult in classes:
        counts[tuple(angles)] += int(mult)
    # angle tuples sort as their integer numerators over one common
    # denominator, which is much cheaper than comparing Fractions
    den = math.lcm(*(a.denominator for angles in counts for a in angles))
    order = sorted(counts, key=lambda angles: [a.numerator * (den // a.denominator) for a in angles])
    return tuple(ConjugacyClass(a, counts[a]) for a in order)


class QuotientGroup:
    """A finite subgroup of U(n) given by eigenvalue-angle classes.

    Instances are immutable by convention and safe to share.  The only derived
    data attached to them, lazily, depends on the group alone: the exponent,
    the Galois orbits of the classes and the n = 2 trace tables.
    Equality and hashing are by identity; use :meth:`class_multiset` for
    structural comparison.
    """

    def __init__(
        self,
        name: str,
        family: str,
        n: int,
        classes: Iterable[tuple[Sequence[Angle], int]],
        *,
        params: dict | None = None,
        base: "QuotientGroup | None" = None,
        generators: Sequence[ExactMatrix] | None = None,
        expect_free: bool = True,
    ):
        self.name = name
        self.family = family
        self.n = int(n)
        self.classes = _merge_classes(classes)
        self.order = sum(c.mult for c in self.classes)
        self.params = dict(params or {})
        self.base = base
        self.generators = tuple(generators or ())
        self._exponent = None
        self._orbits = None
        self._trace_tables = None

        if self.n < 2:
            raise ConstraintError("ambient dimension must be at least 2")
        if self.order < 1:
            raise ConstraintError("group must contain at least the identity")
        for c in self.classes:
            if len(c.angles) != self.n:
                raise ConstraintError(f"class {c} has {len(c.angles)} angles, expected {self.n}")
        ident = tuple([ZERO] * self.n)
        id_mult = sum(c.mult for c in self.classes if c.angles == ident)
        if id_mult != 1:
            raise ConstraintError(f"identity class must appear with multiplicity 1, got {id_mult}")
        if expect_free:
            report = check_free_action(self)
            if not report.free:
                raise NonFreeAction(
                    f"group {name} does not act freely: class {report.witness} has eigenvalue 1",
                    witness=report.witness,
                )

    def __repr__(self) -> str:
        return f"QuotientGroup({self.name!r}, n={self.n}, order={self.order}, classes={len(self.classes)})"

    def class_multiset(self) -> Counter:
        """Multiset of eigenvalue-angle tuples, each sorted within the tuple.

        Canonical structural fingerprint: two groups with equal multisets have
        identical characters on every bidegree space.
        """
        out: Counter = Counter()
        for c in self.classes:
            out[tuple(sorted(c.angles))] += c.mult
        return out

    def element_orders(self) -> Counter:
        out: Counter = Counter()
        for c in self.classes:
            out[math.lcm(*(a.denominator for a in c.angles))] += c.mult
        return out


def check_free_action(group: QuotientGroup) -> FreeActionReport:
    """True iff no non-identity class has an eigenvalue equal to 1.

    Fixed points of a unitary matrix on the sphere are exactly its
    eigenvalue-1 eigenvectors, so this is the free-action criterion.
    """
    ident = tuple([ZERO] * group.n)
    for c in group.classes:
        if c.angles == ident:
            continue
        if any(a == ZERO for a in c.angles):
            return FreeActionReport(False, c)
    return FreeActionReport(True, None)


def from_classes(
    name: str,
    n: int,
    classes: Iterable[tuple[Sequence[Angle], int]],
    *,
    expect_free: bool = False,
) -> QuotientGroup:
    """Escape-hatch constructor from a raw class list (used by tests to build
    groups that fail the free-action criterion)."""
    return QuotientGroup(name, "custom", n, classes, expect_free=expect_free)


# ---------------------------------------------------------------------------
# SU(2) families


def _cyc(*terms: tuple) -> Cyclotomic:
    """Exact entry sum of c * exp(2*pi*i*t) over (c, t) terms, like angles merged."""
    acc: Counter[Angle] = Counter()
    for c, t in terms:
        acc[Fraction(t) % 1] += Fraction(c)
    return tuple((c, t) for t, c in sorted(acc.items()) if c)


def _turn(x: Cyclotomic, t: Angle) -> Cyclotomic:
    """x * exp(2*pi*i*t)."""
    return _cyc(*((c, s + t) for c, s in x))


def _rational(x) -> Cyclotomic:
    return _cyc((x, ZERO))


def _diag(*angles: Angle) -> ExactMatrix:
    """Diagonal matrix of the roots of unity with the given angles."""
    return tuple(tuple(_cyc((1, t)) if i == j else () for j in range(len(angles)))
                 for i, t in enumerate(angles))


def _quat_matrix(a: Cyclotomic, b: Cyclotomic, c: Cyclotomic, d: Cyclotomic,
                 phase: Angle = ZERO) -> ExactMatrix:
    """exp(2*pi*i*phase) times the 2x2 unitary matrix of the unit quaternion
    a+bi+cj+dk, whose real components are exact entries."""
    rows = (
        (_cyc(*a, *_turn(b, QUARTER)), _cyc(*_turn(c, HALF), *_turn(d, QUARTER))),
        (_cyc(*c, *_turn(d, QUARTER)), _cyc(*a, *_turn(b, -QUARTER))),
    )
    return tuple(tuple(_turn(x, phase) for x in row) for row in rows)


def _rational_quat_matrix(h: "QuaternionExact", phase: Angle = ZERO) -> ExactMatrix:
    return _quat_matrix(*map(_rational, h), phase=phase)


_HALF_SQRT2 = _cyc((HALF, Fraction(1, 8)), (HALF, Fraction(7, 8)))
_HALF_PHI = _cyc((HALF, ZERO), (HALF, Fraction(1, 5)), (HALF, Fraction(4, 5)))
_HALF_INV_PHI = _cyc((HALF, Fraction(1, 5)), (HALF, Fraction(4, 5)))


@cache
def make_cyclic(m: int) -> QuotientGroup:
    """Cyclic subgroup of SU(2) of order m, generated by diag(z, z^-1) with
    z a primitive m-th root of unity."""
    if m < 1:
        raise ConstraintError("cyclic order m must be >= 1")
    _require_order(f"cyclic:{m}", m)
    classes = [((angle(j, m), angle(m - j, m)), 1) for j in range(m)]
    gen = _diag(Fraction(1, m), Fraction(-1, m))
    return QuotientGroup(f"cyclic:{m}", "cyclic", 2, classes, params={"m": m}, generators=[gen])


def make_lens(m: int, rotations: Sequence[int]) -> QuotientGroup:
    """Diagonal cyclic group in U(n) generated by diag(z^q1, ..., z^qn).

    Acts freely iff every rotation is coprime to m.
    """
    return _make_lens(int(m), tuple(int(q) for q in rotations))


@cache
def _make_lens(m: int, rotations: tuple[int, ...]) -> QuotientGroup:
    if m < 1:
        raise ConstraintError("lens order m must be >= 1")
    n = len(rotations)
    if n < 2:
        raise ConstraintError("lens groups need at least 2 rotation exponents")
    name = f"lens:{m}:{','.join(str(q) for q in rotations)}"
    _require_order(name, m)
    for q in rotations:
        if math.gcd(q, m) != 1:
            raise NonFreeAction(
                f"rotation exponent {q} shares the factor {math.gcd(q, m)} with {m}; "
                f"the generator has a fixed point on the sphere"
            )
    classes = [(tuple(angle(j * q, m) for q in rotations), 1) for j in range(m)]
    gen = _diag(*(Fraction(q, m) for q in rotations))
    return QuotientGroup(name, "lens", n, classes, params={"m": m, "rotations": rotations}, generators=[gen])


@cache
def make_binary_dihedral(m: int) -> QuotientGroup:
    """Binary dihedral group of order 4m: the cyclic group of order 2m plus
    2m elements of trace zero.  Requires m >= 2 (m = 1 is cyclic of order 4)."""
    if m < 2:
        raise ConstraintError("binary dihedral requires m >= 2")
    _require_order(f"bindih:{2 * m}", 4 * m)
    classes: list[tuple[tuple[Angle, Angle], int]] = [
        ((angle(j, 2 * m), angle(2 * m - j, 2 * m)), 1) for j in range(2 * m)
    ]
    classes.append(((Fraction(1, 4), Fraction(3, 4)), 2 * m))
    gens = [_diag(Fraction(1, 2 * m), Fraction(-1, 2 * m)), _rational_quat_matrix(QUAT_J)]
    return QuotientGroup(f"bindih:{2 * m}", "bindih", 2, classes, params={"m": m}, generators=gens)


@cache
def make_binary_tetrahedral() -> QuotientGroup:
    """Binary tetrahedral group: the quaternion group plus the sixteen
    half-integer unit quaternions (traces +-1)."""
    classes = [(c.angles, c.mult) for c in make_binary_dihedral(2).classes]
    classes += [
        ((Fraction(1, 6), Fraction(5, 6)), 8),
        ((Fraction(1, 3), Fraction(2, 3)), 8),
    ]
    gens = [_rational_quat_matrix(QUAT_I), _rational_quat_matrix(QUAT_H)]
    return QuotientGroup("2T", "2T", 2, classes, generators=gens)


@cache
def make_binary_octahedral() -> QuotientGroup:
    """Binary octahedral group: binary tetrahedral plus 24 elements with
    traces 0 and +-√2."""
    classes = [(c.angles, c.mult) for c in make_binary_tetrahedral().classes]
    classes += [
        ((Fraction(1, 4), Fraction(3, 4)), 12),
        ((Fraction(1, 8), Fraction(7, 8)), 6),
        ((Fraction(3, 8), Fraction(5, 8)), 6),
    ]
    gens = [*make_binary_tetrahedral().generators, _quat_matrix(_HALF_SQRT2, _HALF_SQRT2, (), ())]
    return QuotientGroup("2O", "2O", 2, classes, generators=gens)


@cache
def make_binary_icosahedral() -> QuotientGroup:
    """Binary icosahedral group: binary tetrahedral plus the 96 even
    permutations of (0, +-1, +-1/phi, +-phi)/2, phi the golden ratio."""
    classes = [(c.angles, c.mult) for c in make_binary_tetrahedral().classes]
    classes += [
        ((Fraction(1, 4), Fraction(3, 4)), 24),   # real part 0
        ((Fraction(1, 6), Fraction(5, 6)), 12),   # real part +1/2
        ((Fraction(1, 3), Fraction(2, 3)), 12),   # real part -1/2
        ((Fraction(1, 5), Fraction(4, 5)), 12),   # real part +1/(2 phi)
        ((Fraction(3, 10), Fraction(7, 10)), 12),  # real part -1/(2 phi)
        ((Fraction(1, 10), Fraction(9, 10)), 12),  # real part +phi/2
        ((Fraction(2, 5), Fraction(3, 5)), 12),   # real part -phi/2
    ]
    gens = [*make_binary_tetrahedral().generators,
            _quat_matrix(_HALF_PHI, _HALF_INV_PHI, _rational(HALF), ())]
    return QuotientGroup("2I", "2I", 2, classes, generators=gens)


_SU2_FAMILIES = {"cyclic", "bindih", "2T", "2O", "2I"}


def _product_constraint(base: QuotientGroup) -> int:
    if base.family == "bindih":
        return 2 * base.params["m"]
    if base.family in ("2T", "2O"):
        return 6
    if base.family == "2I":
        return 30
    raise ConstraintError(
        f"central products are defined for the binary families, not {base.family!r}"
    )


def make_product_with_center(base: QuotientGroup, l: int) -> QuotientGroup:
    """Group generated by an SU(2) binary family and the scalar matrix of
    order l.  Free action requires l odd and coprime to the base constraint
    (2m for binary dihedral, 6 for tetra/octahedral, 30 for icosahedral)."""
    constraint = _product_constraint(base)
    if l < 1 or l % 2 == 0:
        raise ConstraintError(f"scalar order l must be odd and positive, got {l}")
    _require_order(f"{base.name}xC:{l}", base.order * l)
    classes = []
    for c in base.classes:
        for j in range(l):
            shift = angle(j, l)
            classes.append((tuple((a + shift) % 1 for a in c.angles), c.mult))
    name = f"{base.name}xC:{l}"
    gens = [*base.generators, _diag(Fraction(1, l), Fraction(1, l))]
    group = QuotientGroup(
        name, "product", 2, classes,
        params={"l": l, "constraint": constraint},
        base=base, generators=gens, expect_free=False,
    )
    report = check_free_action(group)
    if not report.free:
        raise NonFreeAction(
            f"{name}: scalar order l={l} must be coprime to {constraint}; "
            f"class {report.witness} has eigenvalue 1",
            witness=report.witness,
        )
    return group


# ---------------------------------------------------------------------------
# Exact arithmetic for the semidirect families


# trace = 2*Re(q) of a finite-order unit quaternion determines its eigenvalue
# angle; closure only ever meets Hurwitz units, whose traces are these five.
_TRACE_TABLE: dict[Fraction, Angle] = {
    Fraction(2): ZERO,
    Fraction(-2): HALF,
    Fraction(0): Fraction(1, 4),
    Fraction(1): Fraction(1, 6),
    Fraction(-1): Fraction(1, 3),
}


def _numerators(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of xs over their least common denominator."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


class QuaternionExact(NamedTuple):
    """Quaternion a + bi + cj + dk with rational components."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def mul(self, o: "QuaternionExact") -> "QuaternionExact":
        # integer numerators over each factor's common denominator; every
        # coordinate of the product is reduced once
        (a1, b1, c1, d1), den1 = _numerators(self)
        (a2, b2, c2, d2), den2 = _numerators(o)
        den = den1 * den2
        return QuaternionExact(
            Fraction(a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, den),
            Fraction(a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2, den),
            Fraction(a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, den),
            Fraction(a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2, den),
        )

    def neg(self) -> "QuaternionExact":
        return QuaternionExact(-self.a, -self.b, -self.c, -self.d)

    def norm_squared(self) -> Fraction:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def eigen_angle(self) -> Angle:
        trace = 2 * self.a
        try:
            return _TRACE_TABLE[trace]
        except KeyError:
            raise TraceLookupError(f"quaternion trace {trace} outside the finite trace table") from None


def quat(a, b, c, d) -> QuaternionExact:
    return QuaternionExact(*map(Fraction, (a, b, c, d)))


QUAT_ONE = quat(1, 0, 0, 0)
QUAT_I = quat(0, 1, 0, 0)
QUAT_J = quat(0, 0, 1, 0)
QUAT_H = quat(HALF, HALF, HALF, HALF)


class DihedralElement(NamedTuple):
    """Element exp(2*pi*i*t) * j^flag of the binary dihedral subalgebra.

    Keeps the cyclic part as an exact angle so that semidirect closures with
    arbitrary odd m need no field extension.
    """

    t: Angle
    flag: int

    def mul(self, o: "DihedralElement") -> "DihedralElement":
        if not self.flag:
            return DihedralElement((self.t + o.t) % 1, o.flag)
        if not o.flag:
            return DihedralElement((self.t - o.t) % 1, 1)
        return DihedralElement((self.t - o.t + HALF) % 1, 0)

    def neg(self) -> "DihedralElement":
        return DihedralElement((self.t + HALF) % 1, self.flag)

    def eigen_angle(self) -> Angle:
        if self.flag:
            return Fraction(1, 4)
        return min(self.t, (1 - self.t) % 1)


def close_in_su2_x_u1(generators: Sequence[tuple], identity) -> list[tuple]:
    """Worklist closure of generator pairs (element, phase) in SU(2) x U(1),
    taken modulo the order-two center of the covering map.

    Returns one canonical representative per element of the image in U(2),
    sorted: of (g, phase) and (-g, phase + 1/2), the one with the smaller g.
    Raises TraceLookupError if the SU(2) part reaches an element whose trace
    is outside the finite trace table, which no element of a finite group
    of rational quaternions has; the closure then stops instead of running
    on forever.
    """
    # the SU(2) part: close {1, -1} under right multiplication into a table
    # of product indices.  Elements come in pairs 2k, 2k + 1 of e and -e,
    # and (-e)g = -(eg), so only the row of e is multiplied out.
    elems = [identity, identity.neg()]
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for i, elem in enumerate(elems):        # grows while it is read
        if i % 2:
            table.append([j ^ 1 for j in table[i - 1]])
            continue
        elem.eigen_angle()
        row = []
        for g, _ in generators:
            prod = elem.mul(g)
            j = index.get(prod)
            if j is None:
                j = len(elems)
                elems += [prod, prod.neg()]
                index[prod], index[elems[-1]] = j, j + 1
            row.append(j)
        table.append(row)
    # renumber by sorted element, so that integer states sort like pairs
    order = sorted(range(len(elems)), key=elems.__getitem__)
    rank = [0] * len(elems)
    for r, i in enumerate(order):
        rank[i] = r
    elems = [elems[i] for i in order]
    table = [[rank[j] for j in table[i]] for i in order]
    neg = [rank[i ^ 1] for i in order]

    # the U(1) part: phases as numerators over P, state r * P + numerator
    big_p = 2 * math.lcm(*(phase.denominator for _, phase in generators))
    half = big_p // 2
    steps = [int(phase * big_p) for _, phase in generators]

    def canon(r: int, num: int) -> int:
        if neg[r] < r:
            return neg[r] * big_p + (num + half) % big_p
        return r * big_p + num % big_p

    start = canon(rank[0], 0)
    seen = {start}
    work = [start]
    while work:
        r, num = divmod(work.pop(), big_p)
        for j, step in zip(table[r], steps):
            nxt = canon(j, num + step)
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return [(elems[state // big_p], Fraction(state % big_p, big_p)) for state in sorted(seen)]


def _classes_from_pairs(pairs: Iterable[tuple]) -> list[tuple[tuple[Angle, Angle], int]]:
    classes = []
    for elem, phase in pairs:
        theta = elem.eigen_angle()
        classes.append((((phase + theta) % 1, (phase - theta) % 1), 1))
    return classes


@cache
def make_q_semidirect(l: int) -> QuotientGroup:
    """Image in U(2) of the group generated by the quaternion group and an
    order-6 half-integer quaternion carrying a scalar phase of order 18l.

    The enumerated image order is 72l; see the decisions notes for why this
    is the ground truth rather than any smaller reading.
    """
    if l < 1 or l % 2 == 0:
        raise ConstraintError(f"twist parameter l must be odd and positive, got {l}")
    _require_order(f"qsemi:{l}", 72 * l)
    gens = [(QUAT_I, ZERO), (QUAT_J, ZERO), (QUAT_H, Fraction(1, 18 * l))]
    pairs = close_in_su2_x_u1(gens, QUAT_ONE)
    group = QuotientGroup(
        f"qsemi:{l}", "qsemi", 2, _classes_from_pairs(pairs),
        params={"l": l},
        generators=[_rational_quat_matrix(g, phase) for g, phase in gens],
    )
    assert group.order == 72 * l, (group.order, l)
    return group


@cache
def make_cyclic_semidirect(m: int, l: int) -> QuotientGroup:
    """Image in U(2) of the group generated by the cyclic group of order 2m
    and the trace-zero quaternion j carrying a scalar phase of order 4l.

    Free action requires m odd (>= 3), l even, and gcd(m, l) = 1; invalid
    parameters are rejected through the fixed-point criterion.
    """
    if m < 3:
        raise ConstraintError(f"cyclic part must have m >= 3 (m=1 is abelian), got m={m}")
    if l < 1:
        raise ConstraintError(f"twist parameter l must be positive, got {l}")
    _require_order(f"cycsemi:{m}:{l}", 4 * m * l)
    a = DihedralElement(Fraction(1, 2 * m) % 1, 0)
    x = DihedralElement(ZERO, 1)
    gens = [(a, ZERO), (x, Fraction(1, 4 * l))]
    pairs = close_in_su2_x_u1(gens, DihedralElement(ZERO, 0))
    classes = _classes_from_pairs(pairs)
    name = f"cycsemi:{m}:{l}"
    group = QuotientGroup(
        name, "cycsemi", 2, classes,
        params={"m": m, "l": l},
        generators=[
            _diag(Fraction(1, 2 * m), Fraction(-1, 2 * m)),
            _rational_quat_matrix(QUAT_J, Fraction(1, 4 * l)),
        ],
        expect_free=False,
    )
    report = check_free_action(group)
    if not report.free:
        raise NonFreeAction(
            f"{name}: requires m odd, l even, gcd(m, l)=1; class {report.witness} has eigenvalue 1",
            witness=report.witness,
        )
    assert group.order == 4 * m * l, (group.order, m, l)
    return group


def make_trivial(n: int = 2) -> QuotientGroup:
    return make_cyclic(1) if n == 2 else make_lens(1, tuple([1] * n))


CATALOG_FAMILIES = [
    ("cyclic:m", "m >= 1", "m"),
    ("lens:m:q1,...,qn", "gcd(qk, m) = 1 for all k", "m"),
    ("bindih:2m", "m >= 2", "4m"),
    ("2T", "-", "24"),
    ("2O", "-", "48"),
    ("2I", "-", "120"),
    ("<base>xC:l", "l odd, coprime to 2m / 6 / 6 / 30 per base", "|base| * l"),
    ("qsemi:l", "l odd", "72l"),
    ("cycsemi:m:l", "m odd >= 3, l even, gcd(m, l) = 1", "4ml"),
]
