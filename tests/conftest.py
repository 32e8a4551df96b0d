"""Shared group fixtures.  Family constructors are cached, so fixtures just
name the parameter sets used across the suite."""

from __future__ import annotations

import math

import pytest

from kohnspec import (
    make_binary_dihedral,
    make_binary_icosahedral,
    make_binary_octahedral,
    make_binary_tetrahedral,
    make_cyclic,
    make_cyclic_semidirect,
    make_lens,
    make_product_with_center,
    make_q_semidirect,
)
from kohnspec import invariant_dims


@pytest.fixture(autouse=True)
def empty_table_cache():
    """Each test starts with no cached group table: catalog groups are shared
    objects, and a base filled by one test serves every later request of
    another, which would change the residue pairs it traces."""
    invariant_dims._period_tables.clear()


# the groups of the Weyl-law criteria, and the twisted U(2) groups counted beside them
WEYL_GROUP_SPECS = ["cyclic:4", "Q", "2T", "2O", "2I", "cycsemi:3:2"]
TWISTED_SPECS = ["QxC:3", "2TxC:5", "2IxC:7", "qsemi:1", "qsemi:5", "cycsemi:5:2"]


def su2_sample():
    """Representative SU(2)-family groups."""
    groups = [make_cyclic(m) for m in (1, 2, 3, 4, 5, 6, 8, 12)]
    groups += [make_binary_dihedral(m) for m in (2, 3, 4, 6)]
    groups += [make_binary_tetrahedral(), make_binary_octahedral(), make_binary_icosahedral()]
    return groups


def u2_sample():
    """Representative groups from the U(2)-only families."""
    groups = [
        make_product_with_center(make_binary_dihedral(2), 3),   # Q x C3
        make_product_with_center(make_binary_tetrahedral(), 5),  # 2T x C5
        make_product_with_center(make_binary_icosahedral(), 7),
        make_q_semidirect(1),
        make_q_semidirect(3),
        make_cyclic_semidirect(3, 2),
        make_cyclic_semidirect(5, 2),
        make_cyclic_semidirect(3, 4),
    ]
    return groups


def full_reconcile_sweep():
    """Every family with parameters m <= 8, l <= 7 within constraints."""
    groups = [make_cyclic(m) for m in range(1, 9)]
    groups += [make_binary_dihedral(m) for m in range(2, 9)]
    exceptional = [make_binary_tetrahedral(), make_binary_octahedral(), make_binary_icosahedral()]
    groups += exceptional
    for base in [make_binary_dihedral(m) for m in range(2, 9)] + exceptional:
        constraint = 2 * base.params["m"] if base.family == "bindih" else (30 if base.family == "2I" else 6)
        for l in range(1, 8):
            if l % 2 == 1 and math.gcd(l, constraint) == 1:
                groups.append(make_product_with_center(base, l))
    groups += [make_q_semidirect(l) for l in (1, 3, 5, 7)]
    for m in (3, 5, 7):
        for l in (2, 4, 6):
            if math.gcd(m, l) == 1:
                groups.append(make_cyclic_semidirect(m, l))
    return groups


@pytest.fixture(scope="session")
def su2_groups():
    return su2_sample()


@pytest.fixture(scope="session")
def u2_groups():
    return u2_sample()


@pytest.fixture(scope="session")
def all_n2_groups():
    return su2_sample() + u2_sample()


def lens3_sample():
    """Representative n = 3 lens groups."""
    return [
        make_lens(2, (1, 1, 1)),
        make_lens(3, (1, 1, 2)),
        make_lens(4, (1, 3, 3)),
        make_lens(5, (1, 2, 3)),
    ]


@pytest.fixture(scope="session")
def lens3_groups():
    return lens3_sample()
