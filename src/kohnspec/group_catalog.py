"""Catalog of finite unitary groups acting on odd spheres.

Every group is stored as a list of conjugacy-compressed classes: pairs of an
eigenvalue-angle tuple and a multiplicity.  An angle is an integer k in
[0, E), E the group exponent, standing for the unit complex number
exp(2*pi*i*k/E); this is the only piece of data the character machinery ever
needs.  Each constructor writes its angles over a denominator it knows, and
the classes are reduced once to the exponent.

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

Every family writes its classes down directly.  The two twisted families are
images in U(2), under the double cover (g, phase) -> exp(2*pi*i*phase) g, of
fibre products inside SU(2) x U(1): pairs (g, k/P) of an element of a binary
family and a phase, with k fixed modulo 3 (qsemi, over 2T/Q8) or modulo 2
(cycsemi, over bindih/cyclic) by the coset of g.  An element with phase
angle t whose SU(2) part has eigenvalue angles +-theta has the class
(t + theta, t - theta); each image element is listed once, by one of its two
lifts.

Every family also passes a builder of exact generator matrices, which only
the brute-force oracle reads: ``QuotientGroup.generators`` runs it on first
read, so building a group does no exact arithmetic.  An entry is a finite
sum of c * exp(2*pi*i*t) with c a ``Fraction`` and t an angle, held as a
tuple of (c, t) terms.  The irrational quaternion components of 2O and 2I
are such sums too: cos(pi/4) = (z8 + z8^-1)/2, phi/2 = (1 + z5 + z5^4)/2
and 1/(2 phi) = (z5 + z5^4)/2, with zk = exp(2*pi*i/k) and phi the golden
ratio.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ConstraintError, NonFreeAction, ParseError, SizeLimit

Angle = Fraction

ZERO = Fraction(0)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

# largest group order a constructor builds: each element costs a class
# tuple, and make_cyclic(10**5) already takes about 0.6 s
MAX_ORDER = 10**5

# most entries each per-group cache keeps, here and in the engine; a group
# of order 40000 holds about 8 MB of class tuples
CACHE_SIZE = 32

# exact generator data: an entry is a sum of c * exp(2*pi*i*t) over its
# (c, t) terms; a matrix is a tuple of rows of entries
Cyclotomic = tuple[tuple[Fraction, Angle], ...]
ExactMatrix = tuple[tuple[Cyclotomic, ...], ...]


def angle_str(k: int, E: int) -> str:
    """The class angle k over the exponent E as a reduced fraction of a turn."""
    g = math.gcd(k, E)
    return f"{k // g}/{E // g}"


def _require_order(name: str, order: int) -> None:
    """Raise SizeLimit before any class list is built if order exceeds the
    order budget."""
    if order > MAX_ORDER:
        raise SizeLimit(f"{name} has order {order}, above the budget of {MAX_ORDER}")


class ConjugacyClass(NamedTuple):
    angles: tuple[int, ...]
    mult: int


class FreeActionReport(NamedTuple):
    free: bool
    witness: ConjugacyClass | None


def _merge_classes(den: int, classes: Iterable[tuple[Sequence[int], int]]) -> tuple[tuple[ConjugacyClass, ...], int]:
    """The classes, with angles given as integers over den, merged in a fixed
    order and reduced to the group exponent, which they return too."""
    counts: Counter[tuple[int, ...]] = Counter()
    for angles, mult in classes:
        counts[tuple(k % den for k in angles)] += int(mult)
    g = math.gcd(den, *(k for angles in counts for k in angles))
    return tuple(ConjugacyClass(tuple(k // g for k in a), counts[a]) for a in sorted(counts)), den // g


class QuotientGroup:
    """A finite subgroup of U(n) given by eigenvalue-angle classes, their
    angles integers over den.

    Instances are immutable by convention and safe to share; ``exponent``,
    the lcm of the element orders, is read off the classes once, and the
    stored angles are over it.  Equality and hashing are by identity, so
    caches may key on a group.  ``generators`` is a sequence of exact
    matrices or a zero-argument builder of one.
    """

    def __init__(
        self,
        name: str,
        family: str,
        n: int,
        den: int,
        classes: Iterable[tuple[Sequence[int], int]],
        *,
        params: dict | None = None,
        base: "QuotientGroup | None" = None,
        generators: Sequence[ExactMatrix] | Callable[[], Sequence[ExactMatrix]] = (),
        expect_free: bool = True,
    ):
        self.name = name
        self.family = family
        self.n = int(n)
        if den < 1:
            raise ConstraintError(f"angle denominator must be positive, got {den}")
        self.classes, self.exponent = _merge_classes(den, classes)
        self.order = sum(c.mult for c in self.classes)
        self.params = dict(params or {})
        self.base = base
        self._generators = generators

        if self.n < 2:
            raise ConstraintError("ambient dimension must be at least 2")
        if self.order < 1:
            raise ConstraintError("group must contain at least the identity")
        for c in self.classes:
            if len(c.angles) != self.n:
                raise ConstraintError(f"class {c} has {len(c.angles)} angles, expected {self.n}")
        id_mult = sum(c.mult for c in self.classes if not any(c.angles))
        if id_mult != 1:
            raise ConstraintError(f"identity class must appear with multiplicity 1, got {id_mult}")
        if expect_free:
            _require_free(self, f"group {name} does not act freely:")

    @cached_property
    def generators(self) -> tuple[ExactMatrix, ...]:
        """The exact generator matrices, built on first read."""
        return tuple(self._generators() if callable(self._generators) else self._generators)

    def __repr__(self) -> str:
        return f"QuotientGroup({self.name!r}, n={self.n}, order={self.order}, classes={len(self.classes)})"


def check_free_action(group: QuotientGroup) -> FreeActionReport:
    """True iff no non-identity class has an eigenvalue equal to 1.

    Fixed points of a unitary matrix on the sphere are exactly its
    eigenvalue-1 eigenvectors, so this is the free-action criterion.
    """
    for c in group.classes:
        if any(c.angles) and not all(c.angles):
            return FreeActionReport(False, c)
    return FreeActionReport(True, None)


def _require_free(group: QuotientGroup, reason: str) -> None:
    """Raise NonFreeAction, naming the witness class's angles, unless the
    group acts freely."""
    report = check_free_action(group)
    if not report.free:
        angles = ", ".join(angle_str(k, group.exponent) for k in report.witness.angles)
        raise NonFreeAction(f"{reason} class ({angles}) has eigenvalue 1", witness=report.witness)


def from_classes(
    name: str,
    n: int,
    den: int,
    classes: Iterable[tuple[Sequence[int], int]],
    *,
    expect_free: bool = False,
) -> QuotientGroup:
    """Escape-hatch constructor from a raw class list, angles over den (used
    by tests to build groups that fail the free-action criterion)."""
    return QuotientGroup(name, "custom", n, den, classes, expect_free=expect_free)


def _classes_over(group: QuotientGroup, den: int) -> list[tuple[tuple[int, ...], int]]:
    """The group's classes with their angles over den, a multiple of its
    exponent."""
    s = den // group.exponent
    return [(tuple(k * s for k in c.angles), c.mult) for c in group.classes]


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


# quaternion components (a, b, c, d) of i, j and h = (1 + i + j + k)/2
_QI = ((), _rational(1), (), ())
_QJ = ((), (), _rational(1), ())
_QH = (_rational(HALF),) * 4
_HALF_SQRT2 = _cyc((HALF, Fraction(1, 8)), (HALF, Fraction(7, 8)))
_HALF_PHI = _cyc((HALF, ZERO), (HALF, Fraction(1, 5)), (HALF, Fraction(4, 5)))
_HALF_INV_PHI = _cyc((HALF, Fraction(1, 5)), (HALF, Fraction(4, 5)))


@lru_cache(maxsize=CACHE_SIZE)
def make_cyclic(m: int) -> QuotientGroup:
    """Cyclic subgroup of SU(2) of order m, generated by diag(z, z^-1) with
    z a primitive m-th root of unity."""
    if m < 1:
        raise ConstraintError("cyclic order m must be >= 1")
    _require_order(f"cyclic:{m}", m)
    classes = [((j, -j), 1) for j in range(m)]
    return QuotientGroup(f"cyclic:{m}", "cyclic", 2, m, classes, params={"m": m},
                         generators=lambda: [_diag(Fraction(1, m), Fraction(-1, m))])


def make_lens(m: int, rotations: Sequence[int]) -> QuotientGroup:
    """Diagonal cyclic group in U(n) generated by diag(z^q1, ..., z^qn).

    Acts freely iff every rotation is coprime to m.
    """
    return _make_lens(int(m), tuple(int(q) for q in rotations))


@lru_cache(maxsize=CACHE_SIZE)
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
    classes = [(tuple(j * q for q in rotations), 1) for j in range(m)]
    return QuotientGroup(name, "lens", n, m, classes, params={"m": m},
                         generators=lambda: [_diag(*(Fraction(q, m) for q in rotations))])


@lru_cache(maxsize=CACHE_SIZE)
def make_binary_dihedral(m: int) -> QuotientGroup:
    """Binary dihedral group of order 4m: the cyclic group of order 2m plus
    2m elements of trace zero.  Requires m >= 2 (m = 1 is cyclic of order 4)."""
    if m < 2:
        raise ConstraintError("binary dihedral requires m >= 2")
    _require_order(f"bindih:{2 * m}", 4 * m)
    # angles over 4m: j/2m on the cyclic part, 1/4 and 3/4 off it
    classes = [((2 * j, -2 * j), 1) for j in range(2 * m)] + [((m, 3 * m), 2 * m)]
    return QuotientGroup(f"bindih:{2 * m}", "bindih", 2, 4 * m, classes, params={"m": m},
                         generators=lambda: [_diag(Fraction(1, 2 * m), Fraction(-1, 2 * m)), _quat_matrix(*_QJ)])


@lru_cache(maxsize=CACHE_SIZE)
def make_binary_tetrahedral() -> QuotientGroup:
    """Binary tetrahedral group: the quaternion group plus the sixteen
    half-integer unit quaternions (traces +-1)."""
    classes = _classes_over(make_binary_dihedral(2), 12)
    classes += [((2, 10), 8), ((4, 8), 8)]   # angles 1/6, 5/6 and 1/3, 2/3
    return QuotientGroup("2T", "2T", 2, 12, classes, generators=lambda: [_quat_matrix(*_QI), _quat_matrix(*_QH)])


@lru_cache(maxsize=CACHE_SIZE)
def make_binary_octahedral() -> QuotientGroup:
    """Binary octahedral group: binary tetrahedral plus 24 elements with
    traces 0 and +-√2."""
    classes = _classes_over(make_binary_tetrahedral(), 24)
    classes += [
        ((6, 18), 12),   # angles 1/4, 3/4
        ((3, 21), 6),    # 1/8, 7/8
        ((9, 15), 6),    # 3/8, 5/8
    ]
    return QuotientGroup("2O", "2O", 2, 24, classes, generators=lambda: [
        *make_binary_tetrahedral().generators, _quat_matrix(_HALF_SQRT2, _HALF_SQRT2, (), ())])


@lru_cache(maxsize=CACHE_SIZE)
def make_binary_icosahedral() -> QuotientGroup:
    """Binary icosahedral group: binary tetrahedral plus the 96 even
    permutations of (0, +-1, +-1/phi, +-phi)/2, phi the golden ratio."""
    classes = _classes_over(make_binary_tetrahedral(), 60)
    classes += [
        ((15, 45), 24),  # angles 1/4, 3/4: real part 0
        ((10, 50), 12),  # 1/6, 5/6: real part +1/2
        ((20, 40), 12),  # 1/3, 2/3: real part -1/2
        ((12, 48), 12),  # 1/5, 4/5: real part +1/(2 phi)
        ((18, 42), 12),  # 3/10, 7/10: real part -1/(2 phi)
        ((6, 54), 12),   # 1/10, 9/10: real part +phi/2
        ((24, 36), 12),  # 2/5, 3/5: real part -phi/2
    ]
    return QuotientGroup("2I", "2I", 2, 60, classes, generators=lambda: [
        *make_binary_tetrahedral().generators, _quat_matrix(_HALF_PHI, _HALF_INV_PHI, _rational(HALF), ())])


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


@lru_cache(maxsize=CACHE_SIZE)
def make_product_with_center(base: QuotientGroup, l: int) -> QuotientGroup:
    """Group generated by an SU(2) binary family and the scalar matrix of
    order l.  Free action requires l odd and coprime to the base constraint
    (2m for binary dihedral, 6 for tetra/octahedral, 30 for icosahedral)."""
    constraint = _product_constraint(base)
    if l < 1 or l % 2 == 0:
        raise ConstraintError(f"scalar order l must be odd and positive, got {l}")
    _require_order(f"{base.name}xC:{l}", base.order * l)
    den = math.lcm(base.exponent, l)
    shifts = range(0, den, den // l)
    classes = [(tuple(k + s for k in angles), mult)
               for angles, mult in _classes_over(base, den) for s in shifts]
    name = f"{base.name}xC:{l}"
    group = QuotientGroup(name, "product", 2, den, classes, params={"l": l}, base=base, expect_free=False,
                          generators=lambda: [*base.generators, _diag(Fraction(1, l), Fraction(1, l))])
    _require_free(group, f"{name}: scalar order l={l} must be coprime to {constraint};")
    return group


# ---------------------------------------------------------------------------
# Twisted families: fibre products of an SU(2) family with scalar phases


def _twisted(phase: int, theta: int) -> tuple[int, int]:
    """Eigenvalue angles of exp(2*pi*i*phase) times an SU(2) element whose
    eigenvalue angles are +-theta, all over one denominator."""
    return (phase + theta, phase - theta)


@lru_cache(maxsize=CACHE_SIZE)
def make_q_semidirect(l: int) -> QuotientGroup:
    """Image in U(2) of the group generated by the quaternions i and j and
    the order-6 unit h = (1+i+j+k)/2 carrying the scalar phase 1/P, P = 18l.

    The pairs (g, phase) generated form the fibre product of 2T and Z/P over
    Z/3: {(g, k/P) : g in 2T, k = chi(g) mod 3}, chi : 2T -> 2T/Q8 = Z/3 with
    chi(h) = 1, since h^3 = -1 carries the phase 3/P and -1 in Q8 carries 0.
    The kernel (-1, 1/2) of the map to U(2) lies in it, so the image has
    order 24 (P/3) / 2 = 72l.  Each image element is listed by its lift with
    g = -1, -i, -j, -k (chi = 0, eigenvalue angles +-1/2 and +-1/4) or with
    real part -1/2 (four per nonzero value of chi, angles +-1/3).
    """
    if l < 1 or l % 2 == 0:
        raise ConstraintError(f"twist parameter l must be odd and positive, got {l}")
    _require_order(f"qsemi:{l}", 72 * l)
    big_p = 18 * l
    # angles over 2P = 36l: the phase k/P is 2k, and 1/3, 1/2, 1/4 are 12l, 18l, 9l
    classes = []
    for k in range(big_p):
        if k % 3:
            classes.append((_twisted(2 * k, 12 * l), 4))
        else:
            classes += [(_twisted(2 * k, 18 * l), 1), (_twisted(2 * k, 9 * l), 3)]
    return QuotientGroup(f"qsemi:{l}", "qsemi", 2, 2 * big_p, classes, params={"l": l}, generators=lambda: [
        _quat_matrix(*_QI), _quat_matrix(*_QJ), _quat_matrix(*_QH, phase=Fraction(1, big_p))])


@lru_cache(maxsize=CACHE_SIZE)
def make_cyclic_semidirect(m: int, l: int) -> QuotientGroup:
    """Image in U(2) of the group generated by the cyclic group of order 2m
    and the trace-zero quaternion j carrying the scalar phase 1/P, P = 4l.

    The pairs (g, phase) generated form the fibre product of bindih:2m and
    Z/P over Z/2: {(g, k/P) : k = 1 mod 2 exactly when g lies off the cyclic
    part}, since j^2 = -1 carries the phase 2/P.  The kernel (-1, 1/2) of the
    map to U(2) lies in it, so the image has order 4m (P/2) / 2 = 4ml.  Each
    image element is listed by its lift with g = exp(2*pi*i*t) j^flag,
    t < 1/2: eigenvalue angles +-t on the cyclic part, +-1/4 off it.

    Free action requires m odd (>= 3), l even, and gcd(m, l) = 1; invalid
    parameters are rejected through the fixed-point criterion.
    """
    if m < 3:
        raise ConstraintError(f"cyclic part must have m >= 3 (m=1 is abelian), got m={m}")
    if l < 1:
        raise ConstraintError(f"twist parameter l must be positive, got {l}")
    _require_order(f"cycsemi:{m}:{l}", 4 * m * l)
    big_p = 4 * l
    # angles over lcm(P, 2m): the phase k/P and the angle j/2m
    den = math.lcm(big_p, 2 * m)
    phase, theta = den // big_p, den // (2 * m)
    classes = []
    for k in range(big_p):
        if k % 2:
            classes.append((_twisted(k * phase, den // 4), m))
        else:
            classes += [(_twisted(k * phase, j * theta), 1) for j in range(m)]
    name = f"cycsemi:{m}:{l}"
    group = QuotientGroup(
        name, "cycsemi", 2, den, classes,
        params={"m": m, "l": l},
        generators=lambda: [
            _diag(Fraction(1, 2 * m), Fraction(-1, 2 * m)),
            _quat_matrix(*_QJ, phase=Fraction(1, big_p)),
        ],
        expect_free=False,
    )
    _require_free(group, f"{name}: requires m odd, l even, gcd(m, l)=1;")
    return group


def make_trivial(n: int = 2) -> QuotientGroup:
    return make_cyclic(1) if n == 2 else make_lens(1, tuple([1] * n))


# ---------------------------------------------------------------------------
# Spec strings


def parse_group_spec(spec: str) -> QuotientGroup:
    """Parse a group spec string; the resulting group's name is the canonical
    form of the spec."""
    spec = spec.strip()
    if "xC:" in spec:
        base_spec, _, l_text = spec.rpartition("xC:")
        base = parse_group_spec(base_spec)
        return make_product_with_center(base, _int(l_text, "l"))
    if spec == "Q":
        return make_binary_dihedral(2)
    if spec == "2T":
        return make_binary_tetrahedral()
    if spec == "2O":
        return make_binary_octahedral()
    if spec == "2I":
        return make_binary_icosahedral()
    head, _, rest = spec.partition(":")
    if head == "cyclic":
        return make_cyclic(_int(rest, "m"))
    if head == "lens":
        m_text, _, qs_text = rest.partition(":")
        if not qs_text:
            raise ParseError(f"lens spec needs rotations: lens:m:q1,...,qn (got {spec!r})")
        qs = [_int(tok, "rotation") for tok in qs_text.split(",")]
        return make_lens(_int(m_text, "m"), qs)
    if head == "bindih":
        order2m = _int(rest, "2m")
        if order2m % 2 != 0 or order2m < 4:
            raise ConstraintError(f"bindih parameter is 2m with m >= 2; got {order2m}")
        return make_binary_dihedral(order2m // 2)
    if head == "qsemi":
        return make_q_semidirect(_int(rest, "l"))
    if head == "cycsemi":
        m_text, _, l_text = rest.partition(":")
        if not l_text:
            raise ParseError(f"cycsemi spec is cycsemi:m:l (got {spec!r})")
        return make_cyclic_semidirect(_int(m_text, "m"), _int(l_text, "l"))
    raise ParseError(f"unrecognized group spec {spec!r}")


def _int(text: str, label: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ParseError(f"expected an integer for {label}, got {text!r}") from None


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
