"""Frozen gauge values, bit for bit.

Every case below is a seeded gauge: ``norm_bc`` on finite spaces of 1 to
10^4 atoms with moduli scaled by 1e-3, 1 and 1e3, ``luxemburg_norm`` of
arrays past offsets on finite, ``counting`` and ``geometric:0.5`` spaces,
``schauder_tail`` past ``n > 0``, and real-valued input arrays.  Each
value's ``float.hex`` was recorded when the finite certificate still read
``f`` itself rather than the moduli the solve had read; the gauge must keep
every bit, since ``|u| = u`` for a float ``u >= 0`` and ``|x + 0j| = |x|``.

The lazy cases (``LAZY_RULES`` on ``LAZY_SPACES``) are gauges of index
rules, answered by the dyadic probe: they were recorded before its Aitken
passes became one table kept for the length of the march, which must
change no bit.  A refused case records the refusal's type and message.
Seventeen lazy ``power:p`` pins (the two rule tails among them) were
recorded again when such a gauge came to be certified by its level
probe's estimate, scaled, rather than by a second march: they moved by
-43 to +10 ulps.  When the ``exp`` and ``entropy`` solves came to aim inside
the level set, and a power root to be raised until its ``p``-th power reads
the level, 125 pins were recorded again: 105 ``exp`` and ``entropy`` pins
moved up by 3 to 31 ulps, and 20 ``power:p=1.5`` and ``p=3`` pins by -8 to
+1 ulps, most of them no longer stepped up by the certificate.  Every lazy
``power:p`` case is also checked against a
closed form written here with the standard library alone, within 1e-12
relative.
To record a new case, append it to ``CASES`` and print ``outcome(call)``
from the implementation the reference is frozen at.
"""

import math
import sys

import numpy as np
import pytest

from bcorlicz import (
    AtomicMeasureSpace,
    BCOrliczError,
    BCSequence,
    OrliczFunction,
    UnsupportedInstanceError,
    luxemburg_norm,
    norm_bc,
    schauder_tail,
)

SPECS = ("power:p=1", "power:p=1.5", "power:p=2", "power:p=3", "exp", "entropy")
SCALES = (1e-3, 1.0, 1e3)


def complex_normal(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def finite_weights(rng, n):
    return AtomicMeasureSpace.finite(10.0 ** rng.uniform(-2.0, 2.0, n))


def norm_case(spec, n, j):
    rng = np.random.default_rng([n, j])
    space = finite_weights(rng, n)
    F = BCSequence.from_components(
        complex_normal(rng, n, SCALES[j]), complex_normal(rng, n, SCALES[j])
    )
    return lambda: norm_bc(OrliczFunction.parse(spec), F, space)


SPACES = {
    "counting": lambda: AtomicMeasureSpace.counting(5000),
    "geometric:0.5": lambda: AtomicMeasureSpace.geometric(0.5, 2000),
    "finite": lambda: AtomicMeasureSpace.finite(np.linspace(0.5, 2.0, 300)),
}


def offset_case(spec, name, offset):
    rng = np.random.default_rng([300, offset, list(SPACES).index(name)])
    f = complex_normal(rng, 300)
    return lambda: luxemburg_norm(OrliczFunction.parse(spec), f, SPACES[name](), offset=offset)


def tail_case(p, n, lazy):
    rng = np.random.default_rng([1000, n, lazy])
    F = BCSequence.from_components(complex_normal(rng, 1000), complex_normal(rng, 1000))
    space = AtomicMeasureSpace.counting(10**4) if lazy else finite_weights(rng, 1000)
    return lambda: schauder_tail(F, n, p, space)


def real_case(spec, kind, name):
    rng = np.random.default_rng([SPECS.index(spec), len(kind), list(SPACES).index(name)])
    f = rng.standard_normal(300) * 10.0
    f = f.astype(np.int64) if kind == "int" else f
    return lambda: luxemburg_norm(OrliczFunction.parse(spec), f, SPACES[name]())


LAZY_RULES = {
    "c/n": lambda i: 0.7 / i,
    "c/n^2": lambda i: 0.7 / i**2,
    "c*0.9^n": lambda i: 0.7 * 0.9**i,
}
LAZY_SPACES = {
    "counting": lambda: AtomicMeasureSpace.counting(10**6),
    "geometric:0.5": lambda: AtomicMeasureSpace.geometric(0.5, 10**6),
}


def lazy_case(spec, rule, name, offset):
    return lambda: luxemburg_norm(
        OrliczFunction.parse(spec), LAZY_RULES[rule], LAZY_SPACES[name](), offset=offset
    )


def outcome(call):
    """A gauge's ``float.hex``, or its refusal's type and message."""
    try:
        return float.hex(call())
    except BCOrliczError as exc:
        return f"{type(exc).__name__}: {exc}"


CASES = {}
for spec in SPECS:
    for n in (1, 3, 100, 1000, 10**4):
        for j, scale in enumerate(SCALES):
            CASES[f"norm_bc {spec} n={n} scale={scale:g}"] = norm_case(spec, n, j)
    for name in SPACES:
        for offset in (0, 1, 17, 150, 299, 300, 1000):
            CASES[f"luxemburg_norm {spec} {name} offset={offset}"] = offset_case(spec, name, offset)
        for kind in ("float", "int"):
            CASES[f"luxemburg_norm {spec} {name} {kind} array"] = real_case(spec, kind, name)
    for rule in LAZY_RULES:
        for name in LAZY_SPACES:
            for offset in (0, 10, 999):
                CASES[f"luxemburg_norm {spec} {rule} {name} offset={offset}"] = (
                    lazy_case(spec, rule, name, offset)
                )
for p in (1.0, 1.5, 2.0, 3.0):
    for n in (1, 10, 500, 999):
        for lazy in (False, True):
            CASES[f"schauder_tail p={p:g} n={n} {'counting' if lazy else 'finite'}"] = (
                tail_case(p, n, lazy)
            )
CASES["schauder_tail p=2 n=10 rule 1/i counting"] = lambda: schauder_tail(
    BCSequence.from_rules(lambda i: 1.0 / i, lambda i: 2.0 / i),
    10,
    2.0,
    AtomicMeasureSpace.counting(10**5),
)
CASES["schauder_tail p=2 n=10 rule c/n counting(10**6)"] = lambda: schauder_tail(
    BCSequence.from_rules(LAZY_RULES["c/n"], LAZY_RULES["c/n"]),
    10,
    2.0,
    AtomicMeasureSpace.counting(10**6),
)

REFERENCE = {
    'luxemburg_norm entropy c*0.9^n counting offset=0': '0x1.589258ea95f81p+0',
    'luxemburg_norm entropy c*0.9^n counting offset=10': '0x1.e0942f6b3d943p-2',
    'luxemburg_norm entropy c*0.9^n counting offset=999': '0x1.7e09908f307c6p-152',
    'luxemburg_norm entropy c*0.9^n geometric:0.5 offset=0': '0x1.63feeac9050acp-1',
    'luxemburg_norm entropy c*0.9^n geometric:0.5 offset=10': '0x1.e1501d455ca94p-10',
    'luxemburg_norm entropy c*0.9^n geometric:0.5 offset=999': (
        "UnsupportedInstanceError: the entropy gauge solve's scale 4.5123889863808894e+300 "
        '/ 1.2235098762058863e-46 passes the floats'
    ),
    'luxemburg_norm entropy c/n counting offset=0': '0x1.9705abb13ae93p-1',
    'luxemburg_norm entropy c/n counting offset=10': '0x1.aa6e00afbe0b6p-3',
    'luxemburg_norm entropy c/n counting offset=999': (
        'UnsupportedInstanceError: the probe of the entropy modular is inconclusive '
        'after 999001 atoms, so no gauge can be certified; raise n_max'
    ),
    'luxemburg_norm entropy c/n geometric:0.5 offset=0': '0x1.41a0ebb788ae0p-1',
    'luxemburg_norm entropy c/n geometric:0.5 offset=10': '0x1.1c4134adab7b0p-11',
    'luxemburg_norm entropy c/n geometric:0.5 offset=999': '0x1.eaaf188a1efb7p-1000',
    'luxemburg_norm entropy c/n^2 counting offset=0': '0x1.33a1d33a8da4ap-1',
    'luxemburg_norm entropy c/n^2 counting offset=10': '0x1.68e1e72331576p-7',
    'luxemburg_norm entropy c/n^2 counting offset=999': (
        'UnsupportedInstanceError: the probe of the entropy modular is inconclusive '
        'after 999001 atoms, so no gauge can be certified; raise n_max'
    ),
    'luxemburg_norm entropy c/n^2 geometric:0.5 offset=0': '0x1.290076d0373a6p-1',
    'luxemburg_norm entropy c/n^2 geometric:0.5 offset=10': '0x1.8409cf9fe410bp-15',
    'luxemburg_norm entropy c/n^2 geometric:0.5 offset=999': '0x1.f5f5de38731c4p-1010',
    'luxemburg_norm entropy counting float array': '0x1.53b803eb62e31p+7',
    'luxemburg_norm entropy counting int array': '0x1.556b1057703cdp+7',
    'luxemburg_norm entropy counting offset=0': '0x1.65f766fc6d163p+4',
    'luxemburg_norm entropy counting offset=1': '0x1.721b763f4cef2p+4',
    'luxemburg_norm entropy counting offset=1000': '0x0.0p+0',
    'luxemburg_norm entropy counting offset=150': '0x1.1cb1821225c3cp+4',
    'luxemburg_norm entropy counting offset=17': '0x1.71466a15cabdfp+4',
    'luxemburg_norm entropy counting offset=299': '0x1.454db4872f8bfp+1',
    'luxemburg_norm entropy counting offset=300': '0x0.0p+0',
    'luxemburg_norm entropy finite float array': '0x1.977e3cf8b78ecp+7',
    'luxemburg_norm entropy finite int array': '0x1.619d72501cbafp+7',
    'luxemburg_norm entropy finite offset=0': '0x1.be160fc526b2fp+4',
    'luxemburg_norm entropy finite offset=1': '0x1.adb8570ef0539p+4',
    'luxemburg_norm entropy finite offset=1000': '0x0.0p+0',
    'luxemburg_norm entropy finite offset=150': '0x1.56039a38a874dp+4',
    'luxemburg_norm entropy finite offset=17': '0x1.aa5e0ce673597p+4',
    'luxemburg_norm entropy finite offset=299': '0x1.ef54b167629e0p+1',
    'luxemburg_norm entropy finite offset=300': '0x0.0p+0',
    'luxemburg_norm entropy geometric:0.5 float array': '0x1.84720beac5135p+3',
    'luxemburg_norm entropy geometric:0.5 int array': '0x1.06a9a6c8eaad4p+3',
    'luxemburg_norm entropy geometric:0.5 offset=0': '0x1.c8562fe78fdf7p+0',
    'luxemburg_norm entropy geometric:0.5 offset=1': '0x1.0684152dbd3e2p+0',
    'luxemburg_norm entropy geometric:0.5 offset=1000': '0x0.0p+0',
    'luxemburg_norm entropy geometric:0.5 offset=150': '0x1.40c4930f40b93p-142',
    'luxemburg_norm entropy geometric:0.5 offset=17': '0x1.1de62e0d94e07p-13',
    'luxemburg_norm entropy geometric:0.5 offset=299': '0x1.dec4eae87684fp-292',
    'luxemburg_norm entropy geometric:0.5 offset=300': '0x0.0p+0',
    'luxemburg_norm exp c*0.9^n counting offset=0': '0x1.18b2e96211d98p+0',
    'luxemburg_norm exp c*0.9^n counting offset=10': '0x1.877e9ce65113fp-2',
    'luxemburg_norm exp c*0.9^n counting offset=999': '0x1.373837bb73ddap-152',
    'luxemburg_norm exp c*0.9^n geometric:0.5 offset=0': '0x1.59e991d6f2794p-1',
    'luxemburg_norm exp c*0.9^n geometric:0.5 offset=10': '0x1.0f0fa8944bf2bp-5',
    'luxemburg_norm exp c*0.9^n geometric:0.5 offset=999': '0x1.086edeb52add2p-162',
    'luxemburg_norm exp c/n counting offset=0': '0x1.725b5a550c03cp-1',
    'luxemburg_norm exp c/n counting offset=10': '0x1.44478d007af38p-3',
    'luxemburg_norm exp c/n counting offset=999': '0x1.0178e73ac83b1p-6',
    'luxemburg_norm exp c/n geometric:0.5 offset=0': '0x1.48da9746a8225p-1',
    'luxemburg_norm exp c/n geometric:0.5 offset=10': '0x1.3c7241f8cae04p-7',
    'luxemburg_norm exp c/n geometric:0.5 offset=999': '0x1.0f7949595cbfep-20',
    'luxemburg_norm exp c/n^2 counting offset=0': '0x1.401c09da90531p-1',
    'luxemburg_norm exp c/n^2 counting offset=10': '0x1.27aa3a11ceae9p-7',
    'luxemburg_norm exp c/n^2 counting offset=999': '0x1.31d05bb385c58p-17',
    'luxemburg_norm exp c/n^2 geometric:0.5 offset=0': '0x1.3be0dd94338f5p-1',
    'luxemburg_norm exp c/n^2 geometric:0.5 offset=10': '0x1.c1a6cae13ab58p-11',
    'luxemburg_norm exp c/n^2 geometric:0.5 offset=999': '0x1.15ed5dc526556p-30',
    'luxemburg_norm exp counting float array': '0x1.09575bb57a322p+7',
    'luxemburg_norm exp counting int array': '0x1.cf95cc656d8c3p+6',
    'luxemburg_norm exp counting offset=0': '0x1.06ed7cfa9b4e6p+4',
    'luxemburg_norm exp counting offset=1': '0x1.0f8c4715215a9p+4',
    'luxemburg_norm exp counting offset=1000': '0x0.0p+0',
    'luxemburg_norm exp counting offset=150': '0x1.a76a7e46b7588p+3',
    'luxemburg_norm exp counting offset=17': '0x1.0f374dcb07f9ap+4',
    'luxemburg_norm exp counting offset=299': '0x1.5febb70a45448p+1',
    'luxemburg_norm exp counting offset=300': '0x0.0p+0',
    'luxemburg_norm exp finite float array': '0x1.0fd33e6b5ca66p+7',
    'luxemburg_norm exp finite int array': '0x1.e89b2441d2c98p+6',
    'luxemburg_norm exp finite offset=0': '0x1.45d6244e9217cp+4',
    'luxemburg_norm exp finite offset=1': '0x1.39d9de33f8c32p+4',
    'luxemburg_norm exp finite offset=1000': '0x0.0p+0',
    'luxemburg_norm exp finite offset=150': '0x1.f7ece60b0e908p+3',
    'luxemburg_norm exp finite offset=17': '0x1.37cdf41d5fdbap+4',
    'luxemburg_norm exp finite offset=299': '0x1.de7b854611b38p+1',
    'luxemburg_norm exp finite offset=300': '0x0.0p+0',
    'luxemburg_norm exp geometric:0.5 float array': '0x1.302044b490a11p+3',
    'luxemburg_norm exp geometric:0.5 int array': '0x1.fafe66050eb62p+2',
    'luxemburg_norm exp geometric:0.5 offset=0': '0x1.bd1a811f265acp+0',
    'luxemburg_norm exp geometric:0.5 offset=1': '0x1.4b6f198e52db0p+0',
    'luxemburg_norm exp geometric:0.5 offset=1000': '0x0.0p+0',
    'luxemburg_norm exp geometric:0.5 offset=150': '0x1.ed995b07d541fp-6',
    'luxemburg_norm exp geometric:0.5 offset=17': '0x1.5a55bb3bf532cp-3',
    'luxemburg_norm exp geometric:0.5 offset=299': '0x1.76d8152a373e1p-8',
    'luxemburg_norm exp geometric:0.5 offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=1 c*0.9^n counting offset=0': '0x1.9333333333335p+2',
    'luxemburg_norm power:p=1 c*0.9^n counting offset=10': '0x1.192c9e89b4f48p+1',
    'luxemburg_norm power:p=1 c*0.9^n counting offset=999': '0x1.bf0a5915f6adap-150',
    'luxemburg_norm power:p=1 c*0.9^n geometric:0.5 offset=0': '0x1.253c8253c8254p+0',
    'luxemburg_norm power:p=1 c*0.9^n geometric:0.5 offset=10': '0x1.98fb1525644c5p-12',
    'luxemburg_norm power:p=1 c*0.9^n geometric:0.5 offset=999': (
        'UnsupportedInstanceError: the power:p=1 gauge 0.0 has no finite reciprocal in floats'
    ),
    'luxemburg_norm power:p=1 c/n counting offset=0': (
        'NotInSpaceError: the power:p=1 modular diverges (probe over 1000000 atoms); the '
        'sequence is outside the space'
    ),
    'luxemburg_norm power:p=1 c/n counting offset=10': (
        'NotInSpaceError: the power:p=1 modular diverges (probe over 999990 atoms); the '
        'sequence is outside the space'
    ),
    'luxemburg_norm power:p=1 c/n counting offset=999': (
        'NotInSpaceError: the power:p=1 modular diverges (probe over 999001 atoms); the '
        'sequence is outside the space'
    ),
    'luxemburg_norm power:p=1 c/n geometric:0.5 offset=0': '0x1.f0d90fe91844ep-1',
    'luxemburg_norm power:p=1 c/n geometric:0.5 offset=10': '0x1.e36939ca09dfbp-14',
    'luxemburg_norm power:p=1 c/n geometric:0.5 offset=999': '0x1.6ea2bce2a3bf3p-1009',
    'luxemburg_norm power:p=1 c/n^2 counting offset=0': '0x1.26c5ade6d5250p+0',
    'luxemburg_norm power:p=1 c/n^2 counting offset=10': '0x1.10dc6519a64b6p-4',
    'luxemburg_norm power:p=1 c/n^2 counting offset=999': '0x1.6f2f66c650637p-11',
    'luxemburg_norm power:p=1 c/n^2 geometric:0.5 offset=0': '0x1.a1599a36cdf66p-1',
    'luxemburg_norm power:p=1 c/n^2 geometric:0.5 offset=10': '0x1.49309a4debb50p-17',
    'luxemburg_norm power:p=1 c/n^2 geometric:0.5 offset=999': '0x1.770fb6bb331afp-1019',
    'luxemburg_norm power:p=1 counting float array': '0x1.3a3664c27eeadp+11',
    'luxemburg_norm power:p=1 counting int array': '0x1.1e60000000000p+11',
    'luxemburg_norm power:p=1 counting offset=0': '0x1.5b016fb25b547p+8',
    'luxemburg_norm power:p=1 counting offset=1': '0x1.673fb405f1460p+8',
    'luxemburg_norm power:p=1 counting offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=1 counting offset=150': '0x1.8f9c3c0908d6cp+7',
    'luxemburg_norm power:p=1 counting offset=17': '0x1.5d429e5192abdp+8',
    'luxemburg_norm power:p=1 counting offset=299': '0x1.935e8351d87fap+1',
    'luxemburg_norm power:p=1 counting offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=1 finite float array': '0x1.761839ed20967p+11',
    'luxemburg_norm power:p=1 finite int array': '0x1.751941ed29f41p+11',
    'luxemburg_norm power:p=1 finite offset=0': '0x1.ea383a0e261acp+8',
    'luxemburg_norm power:p=1 finite offset=1': '0x1.d52ce5d9b227ep+8',
    'luxemburg_norm power:p=1 finite offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=1 finite offset=150': '0x1.2d3048a4da7f0p+8',
    'luxemburg_norm power:p=1 finite offset=17': '0x1.cd5fba580787bp+8',
    'luxemburg_norm power:p=1 finite offset=299': '0x1.9a621eb6b0a97p+2',
    'luxemburg_norm power:p=1 finite offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=1 geometric:0.5 float array': '0x1.9d94e103fa71ap+4',
    'luxemburg_norm power:p=1 geometric:0.5 int array': '0x1.3f9a194ddc838p+3',
    'luxemburg_norm power:p=1 geometric:0.5 offset=0': '0x1.7627156344d27p+1',
    'luxemburg_norm power:p=1 geometric:0.5 offset=1': '0x1.178ae964ad918p+0',
    'luxemburg_norm power:p=1 geometric:0.5 offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=1 geometric:0.5 offset=150': '0x1.9fdd7de8678a4p-149',
    'luxemburg_norm power:p=1 geometric:0.5 offset=17': '0x1.f8cd4e4b1b2e9p-17',
    'luxemburg_norm power:p=1 geometric:0.5 offset=299': '0x1.2f76cfc3dc008p-299',
    'luxemburg_norm power:p=1 geometric:0.5 offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=1.5 c*0.9^n counting offset=0': '0x1.2297410c38d8cp+1',
    'luxemburg_norm power:p=1.5 c*0.9^n counting offset=10': '0x1.954a8177f38cep-1',
    'luxemburg_norm power:p=1.5 c*0.9^n counting offset=999': '0x1.422fe7a0409d6p-151',
    'luxemburg_norm power:p=1.5 c*0.9^n geometric:0.5 offset=0': '0x1.d3836b1196a0bp-1',
    'luxemburg_norm power:p=1.5 c*0.9^n geometric:0.5 offset=10': '0x1.9ac399a3c8c9bp-9',
    'luxemburg_norm power:p=1.5 c*0.9^n geometric:0.5 offset=999': '0x1.032c5ec93c5d4p-818',
    'luxemburg_norm power:p=1.5 c/n counting offset=0': '0x1.53e883faf708ap+0',
    'luxemburg_norm power:p=1.5 c/n counting offset=10': '0x1.03c32ec98a408p-1',
    'luxemburg_norm power:p=1.5 c/n counting offset=999': '0x1.c7372b241045ep-4',
    'luxemburg_norm power:p=1.5 c/n geometric:0.5 offset=0': '0x1.9fd06606f041ap-1',
    'luxemburg_norm power:p=1.5 c/n geometric:0.5 offset=10': '0x1.e49def80d64bcp-11',
    'luxemburg_norm power:p=1.5 c/n geometric:0.5 offset=999': '0x1.22ffc43d19253p-676',
    'luxemburg_norm power:p=1.5 c/n^2 counting offset=0': '0x1.952ee17029874p-1',
    'luxemburg_norm power:p=1.5 c/n^2 counting offset=10': '0x1.39c17bc0eaef5p-6',
    'luxemburg_norm power:p=1.5 c/n^2 counting offset=999': '0x1.72293f78bd780p-15',
    'luxemburg_norm power:p=1.5 c/n^2 geometric:0.5 offset=0': '0x1.77f8278221426p-1',
    'luxemburg_norm power:p=1.5 c/n^2 geometric:0.5 offset=10': '0x1.4c10b49123552p-14',
    'luxemburg_norm power:p=1.5 c/n^2 geometric:0.5 offset=999': '0x1.29afdf9a52e88p-686',
    'luxemburg_norm power:p=1.5 counting float array': '0x1.87e852bb443fep+8',
    'luxemburg_norm power:p=1.5 counting int array': '0x1.72d56fa190b59p+8',
    'luxemburg_norm power:p=1.5 counting offset=0': '0x1.bc2a603f47c4cp+5',
    'luxemburg_norm power:p=1.5 counting offset=1': '0x1.cc173bb2a9430p+5',
    'luxemburg_norm power:p=1.5 counting offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=1.5 counting offset=150': '0x1.3f9a14b23d5afp+5',
    'luxemburg_norm power:p=1.5 counting offset=17': '0x1.c7430b5ffd270p+5',
    'luxemburg_norm power:p=1.5 counting offset=299': '0x1.935e8351d87fap+1',
    'luxemburg_norm power:p=1.5 counting offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=1.5 finite float array': '0x1.d9e852d175e39p+8',
    'luxemburg_norm power:p=1.5 finite int array': '0x1.b00c5fea1bb90p+8',
    'luxemburg_norm power:p=1.5 finite offset=0': '0x1.20d0b94bb3e65p+6',
    'luxemburg_norm power:p=1.5 finite offset=1': '0x1.15a777ea93862p+6',
    'luxemburg_norm power:p=1.5 finite offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=1.5 finite offset=150': '0x1.9c17e3d2afa66p+5',
    'luxemburg_norm power:p=1.5 finite offset=17': '0x1.127584e05261dp+6',
    'luxemburg_norm power:p=1.5 finite offset=299': '0x1.45b8af619c2b4p+2',
    'luxemburg_norm power:p=1.5 finite offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=1.5 geometric:0.5 float array': '0x1.c3dee343f5b1fp+3',
    'luxemburg_norm power:p=1.5 geometric:0.5 int array': '0x1.89bb04dd584d6p+4',
    'luxemburg_norm power:p=1.5 geometric:0.5 offset=0': '0x1.2b4b0828c06eep+1',
    'luxemburg_norm power:p=1.5 geometric:0.5 offset=1': '0x1.3db48dc3e4b41p+0',
    'luxemburg_norm power:p=1.5 geometric:0.5 offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=1.5 geometric:0.5 offset=150': '0x1.50e93fcaea54cp-99',
    'luxemburg_norm power:p=1.5 geometric:0.5 offset=17': '0x1.593b1470cf5d0p-11',
    'luxemburg_norm power:p=1.5 geometric:0.5 offset=299': '0x1.e1b8205db4c34p-200',
    'luxemburg_norm power:p=1.5 geometric:0.5 offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=2 c*0.9^n counting offset=0': '0x1.72006f1f3850fp+0',
    'luxemburg_norm power:p=2 c*0.9^n counting offset=10': '0x1.0205f246e62e5p-1',
    'luxemburg_norm power:p=2 c*0.9^n counting offset=999': '0x1.9a3b80419e512p-152',
    'luxemburg_norm power:p=2 c*0.9^n geometric:0.5 offset=0': '0x1.a22b4fc861871p-1',
    'luxemburg_norm power:p=2 c*0.9^n geometric:0.5 offset=10': '0x1.239cf7fdac1ffp-7',
    'luxemburg_norm power:p=2 c*0.9^n geometric:0.5 offset=999': '0x1.47d74d7f0ffc4p-652',
    'luxemburg_norm power:p=2 c/n counting offset=0': '0x1.cbaa75be73259p-1',
    'luxemburg_norm power:p=2 c/n counting offset=10': '0x1.ba4079c1c5480p-3',
    'luxemburg_norm power:p=2 c/n counting offset=999': '0x1.6ac417ca1d277p-6',
    'luxemburg_norm power:p=2 c/n geometric:0.5 offset=0': '0x1.82c0e3238ef2cp-1',
    'luxemburg_norm power:p=2 c/n geometric:0.5 offset=10': '0x1.577c0c359c3d2p-9',
    'luxemburg_norm power:p=2 c/n geometric:0.5 offset=999': '0x1.6ea2d4b8fdfdbp-510',
    'luxemburg_norm power:p=2 c/n^2 counting offset=0': '0x1.74dc5024f7814p-1',
    'luxemburg_norm power:p=2 c/n^2 counting offset=10': '0x1.8459c8abadebcp-7',
    'luxemburg_norm power:p=2 c/n^2 counting offset=999': '0x1.ad2761bc4204ep-17',
    'luxemburg_norm power:p=2 c/n^2 geometric:0.5 offset=0': '0x1.6c9c55c0f2523p-1',
    'luxemburg_norm power:p=2 c/n^2 geometric:0.5 offset=10': '0x1.d94dcdb7a399fp-13',
    'luxemburg_norm power:p=2 c/n^2 geometric:0.5 offset=999': '0x1.771017fb825ddp-520',
    'luxemburg_norm power:p=2 counting float array': '0x1.659f6f11efa16p+7',
    'luxemburg_norm power:p=2 counting int array': '0x1.4dc2a91f3a055p+7',
    'luxemburg_norm power:p=2 counting offset=0': '0x1.6cfbf3e83849bp+4',
    'luxemburg_norm power:p=2 counting offset=1': '0x1.792a19b63d185p+4',
    'luxemburg_norm power:p=2 counting offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=2 counting offset=150': '0x1.241d2ed47e632p+4',
    'luxemburg_norm power:p=2 counting offset=17': '0x1.78830ff2724eap+4',
    'luxemburg_norm power:p=2 counting offset=299': '0x1.935e8351d87fap+1',
    'luxemburg_norm power:p=2 counting offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=2 finite float array': '0x1.7ba0101b931a1p+7',
    'luxemburg_norm power:p=2 finite int array': '0x1.6cb93e723689bp+7',
    'luxemburg_norm power:p=2 finite offset=0': '0x1.c58f2a4a1953ep+4',
    'luxemburg_norm power:p=2 finite offset=1': '0x1.b4e6c36aaf7b1p+4',
    'luxemburg_norm power:p=2 finite offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=2 finite offset=150': '0x1.5d41abd3bf528p+4',
    'luxemburg_norm power:p=2 finite offset=17': '0x1.b1c2d8b2c6c92p+4',
    'luxemburg_norm power:p=2 finite offset=299': '0x1.222f4f1e1b041p+2',
    'luxemburg_norm power:p=2 finite offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=2 geometric:0.5 float array': '0x1.1eedae94111f7p+3',
    'luxemburg_norm power:p=2 geometric:0.5 int array': '0x1.fec1fa0d85335p+3',
    'luxemburg_norm power:p=2 geometric:0.5 offset=0': '0x1.0c799066c4227p+1',
    'luxemburg_norm power:p=2 geometric:0.5 offset=1': '0x1.5d628ff243dd5p+0',
    'luxemburg_norm power:p=2 geometric:0.5 offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=2 geometric:0.5 offset=150': '0x1.31c34e2a883b8p-74',
    'luxemburg_norm power:p=2 geometric:0.5 offset=17': '0x1.25dbb16ba682ap-8',
    'luxemburg_norm power:p=2 geometric:0.5 offset=299': '0x1.ad29be183b5e0p-150',
    'luxemburg_norm power:p=2 geometric:0.5 offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=3 c*0.9^n counting offset=0': '0x1.f272f2fffbb28p-1',
    'luxemburg_norm power:p=3 c*0.9^n counting offset=10': '0x1.5b98cb6906caep-2',
    'luxemburg_norm power:p=3 c*0.9^n counting offset=999': '0x1.1452af920754fp-152',
    'luxemburg_norm power:p=3 c*0.9^n geometric:0.5 offset=0': '0x1.772ddab79ec55p-1',
    'luxemburg_norm power:p=3 c*0.9^n geometric:0.5 offset=10': '0x1.9f51530e53299p-6',
    'luxemburg_norm power:p=3 c*0.9^n geometric:0.5 offset=999': '0x1.9ff9092ce245ep-486',
    'luxemburg_norm power:p=3 c/n counting offset=0': '0x1.7d13063fa9e81p-1',
    'luxemburg_norm power:p=3 c/n counting offset=10': '0x1.da3c840d49864p-4',
    'luxemburg_norm power:p=3 c/n counting offset=999': '0x1.6c3bac145940bp-8',
    'luxemburg_norm power:p=3 c/n geometric:0.5 offset=0': '0x1.6f145f2d54b6fp-1',
    'luxemburg_norm power:p=3 c/n geometric:0.5 offset=10': '0x1.e7e09e768ff82p-8',
    'luxemburg_norm power:p=3 c/n geometric:0.5 offset=999': '0x1.cdeed57b68e9dp-344',
    'luxemburg_norm power:p=3 c/n^2 counting offset=0': '0x1.6875c61ae9a7cp-1',
    'luxemburg_norm power:p=3 c/n^2 counting offset=10': '0x1.096df3a69fce2p-7',
    'luxemburg_norm power:p=3 c/n^2 counting offset=999': '0x1.12f28e340ccc4p-18',
    'luxemburg_norm power:p=3 c/n^2 geometric:0.5 offset=0': '0x1.676038da4244dp-1',
    'luxemburg_norm power:p=3 c/n^2 geometric:0.5 offset=10': '0x1.533a9fe1c31c9p-11',
    'luxemburg_norm power:p=3 c/n^2 geometric:0.5 offset=999': '0x1.d88d2c9edccd0p-354',
    'luxemburg_norm power:p=3 counting float array': '0x1.30c04aec9a121p+6',
    'luxemburg_norm power:p=3 counting int array': '0x1.1f1eeb2273dc7p+6',
    'luxemburg_norm power:p=3 counting offset=0': '0x1.399d122e77115p+3',
    'luxemburg_norm power:p=3 counting offset=1': '0x1.40da62a19c0d8p+3',
    'luxemburg_norm power:p=3 counting offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=3 counting offset=150': '0x1.14007e047733bp+3',
    'luxemburg_norm power:p=3 counting offset=17': '0x1.4348fe1b93f4bp+3',
    'luxemburg_norm power:p=3 counting offset=299': '0x1.935e8351d87fap+1',
    'luxemburg_norm power:p=3 counting offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=3 finite float array': '0x1.5d999eff8b41dp+6',
    'luxemburg_norm power:p=3 finite int array': '0x1.4d10ec21a7c8dp+6',
    'luxemburg_norm power:p=3 finite offset=0': '0x1.717317cbb3115p+3',
    'luxemburg_norm power:p=3 finite offset=1': '0x1.637df4a240b9fp+3',
    'luxemburg_norm power:p=3 finite offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=3 finite offset=150': '0x1.33d6522e20181p+3',
    'luxemburg_norm power:p=3 finite offset=17': '0x1.65b199a087ce2p+3',
    'luxemburg_norm power:p=3 finite offset=299': '0x1.028677e9afbfep+2',
    'luxemburg_norm power:p=3 finite offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=3 geometric:0.5 float array': '0x1.16074a1703f80p+4',
    'luxemburg_norm power:p=3 geometric:0.5 int array': '0x1.6508f2c8b213bp+3',
    'luxemburg_norm power:p=3 geometric:0.5 offset=0': '0x1.e3e6b3e2be607p+0',
    'luxemburg_norm power:p=3 geometric:0.5 offset=1': '0x1.8b09799718b24p+0',
    'luxemburg_norm power:p=3 geometric:0.5 offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=3 geometric:0.5 offset=150': '0x1.1959b2a7f0f1dp-49',
    'luxemburg_norm power:p=3 geometric:0.5 offset=17': '0x1.03285e0bf7edap-5',
    'luxemburg_norm power:p=3 geometric:0.5 offset=299': '0x1.7e573fcc58092p-100',
    'luxemburg_norm power:p=3 geometric:0.5 offset=300': '0x0.0p+0',
    'norm_bc entropy n=1 scale=0.001': '0x1.21b538e2edd35p-10',
    'norm_bc entropy n=1 scale=1': '0x1.36c1e1af96c23p-2',
    'norm_bc entropy n=1 scale=1000': '0x1.46812aa6a4f13p+9',
    'norm_bc entropy n=100 scale=0.001': '0x1.94af2ca612264p-5',
    'norm_bc entropy n=100 scale=1': '0x1.680e7d95ef2fcp+5',
    'norm_bc entropy n=100 scale=1000': '0x1.1cc2b1e9b4792p+15',
    'norm_bc entropy n=1000 scale=0.001': '0x1.24dfc979a401ep-3',
    'norm_bc entropy n=1000 scale=1': '0x1.2912aca87ae00p+7',
    'norm_bc entropy n=1000 scale=1000': '0x1.326869a96e407p+17',
    'norm_bc entropy n=10000 scale=0.001': '0x1.d5ab7209f23d7p-2',
    'norm_bc entropy n=10000 scale=1': '0x1.d5eb3578e0811p+8',
    'norm_bc entropy n=10000 scale=1000': '0x1.c8f137e975f29p+18',
    'norm_bc entropy n=3 scale=0.001': '0x1.f541f1299a0aep-9',
    'norm_bc entropy n=3 scale=1': '0x1.915903c6ecfbdp-1',
    'norm_bc entropy n=3 scale=1000': '0x1.023095b564f93p+12',
    'norm_bc exp n=1 scale=0.001': '0x1.333dcb5182da5p-10',
    'norm_bc exp n=1 scale=1': '0x1.ed472ab796791p-2',
    'norm_bc exp n=1 scale=1000': '0x1.8527b3c417801p+9',
    'norm_bc exp n=100 scale=0.001': '0x1.2350726fc3feap-5',
    'norm_bc exp n=100 scale=1': '0x1.03b125d5f99d2p+5',
    'norm_bc exp n=100 scale=1000': '0x1.9e1acfa9ad7fcp+14',
    'norm_bc exp n=1000 scale=0.001': '0x1.a0e31bbc84c3ep-4',
    'norm_bc exp n=1000 scale=1': '0x1.a6d52f58bde41p+6',
    'norm_bc exp n=1000 scale=1000': '0x1.b3d5cf6ff04ecp+16',
    'norm_bc exp n=10000 scale=0.001': '0x1.4cc3f00c1446bp-2',
    'norm_bc exp n=10000 scale=1': '0x1.4cf0a269502f9p+8',
    'norm_bc exp n=10000 scale=1000': '0x1.43bd58bac7dc1p+18',
    'norm_bc exp n=3 scale=0.001': '0x1.8efdae572259fp-9',
    'norm_bc exp n=3 scale=1': '0x1.00492b0af8df1p+0',
    'norm_bc exp n=3 scale=1000': '0x1.965e5753d6047p+11',
    'norm_bc power:p=1 n=1 scale=0.001': '0x1.7795dd117a2b6p-10',
    'norm_bc power:p=1 n=1 scale=1': '0x1.ad7b2381384e2p-3',
    'norm_bc power:p=1 n=1 scale=1000': '0x1.4f037d6909390p+9',
    'norm_bc power:p=1 n=100 scale=0.001': '0x1.979e6e51a1a35p+0',
    'norm_bc power:p=1 n=100 scale=1': '0x1.3e97cca8a6b1ap+10',
    'norm_bc power:p=1 n=100 scale=1000': '0x1.8faa5a7c929a6p+19',
    'norm_bc power:p=1 n=1000 scale=0.001': '0x1.95de3ae2f246fp+3',
    'norm_bc power:p=1 n=1000 scale=1': '0x1.a952d2369d922p+13',
    'norm_bc power:p=1 n=1000 scale=1000': '0x1.d409cee17feefp+23',
    'norm_bc power:p=1 n=10000 scale=0.001': '0x1.088ec70bd92e4p+7',
    'norm_bc power:p=1 n=10000 scale=1': '0x1.0cc7cffbdc15fp+17',
    'norm_bc power:p=1 n=10000 scale=1000': '0x1.049feec47d7c6p+27',
    'norm_bc power:p=1 n=3 scale=0.001': '0x1.0ac47a594f5cep-6',
    'norm_bc power:p=1 n=3 scale=1': '0x1.8cbad639f1b2bp-1',
    'norm_bc power:p=1 n=3 scale=1000': '0x1.4dd388cc16931p+14',
    'norm_bc power:p=1.5 n=1 scale=0.001': '0x1.6a32cb0fd327fp-10',
    'norm_bc power:p=1.5 n=1 scale=1': '0x1.67d1ab3541fc4p-2',
    'norm_bc power:p=1.5 n=1 scale=1000': '0x1.88809b9ff133ep+9',
    'norm_bc power:p=1.5 n=100 scale=0.001': '0x1.3e80853894d8cp-3',
    'norm_bc power:p=1.5 n=100 scale=1': '0x1.1067943dc8589p+7',
    'norm_bc power:p=1.5 n=100 scale=1000': '0x1.8b737bc7bda29p+16',
    'norm_bc power:p=1.5 n=1000 scale=0.001': '0x1.41d0722d47796p-1',
    'norm_bc power:p=1.5 n=1000 scale=1': '0x1.49813ea22e16cp+9',
    'norm_bc power:p=1.5 n=1000 scale=1000': '0x1.5c623ab5db1bep+19',
    'norm_bc power:p=1.5 n=10000 scale=0.001': '0x1.7e0f36413b896p+1',
    'norm_bc power:p=1.5 n=10000 scale=1': '0x1.7fd5948d9946cp+11',
    'norm_bc power:p=1.5 n=10000 scale=1000': '0x1.7546a56767fb2p+21',
    'norm_bc power:p=1.5 n=3 scale=0.001': '0x1.a6a48a838b3bap-8',
    'norm_bc power:p=1.5 n=3 scale=1': '0x1.e071a212743aep-1',
    'norm_bc power:p=1.5 n=3 scale=1000': '0x1.ca1bc638c0fb8p+12',
    'norm_bc power:p=2 n=1 scale=0.001': '0x1.63af572c4d9ccp-10',
    'norm_bc power:p=2 n=1 scale=1': '0x1.d1c47b4485d12p-2',
    'norm_bc power:p=2 n=1 scale=1000': '0x1.a8d8bdba86588p+9',
    'norm_bc power:p=2 n=100 scale=0.001': '0x1.986996da00885p-5',
    'norm_bc power:p=2 n=100 scale=1': '0x1.6bbc47639e40ep+5',
    'norm_bc power:p=2 n=100 scale=1000': '0x1.20dab6d28fc3fp+15',
    'norm_bc power:p=2 n=1000 scale=0.001': '0x1.25dab62347eb1p-3',
    'norm_bc power:p=2 n=1000 scale=1': '0x1.2a0e42d881c72p+7',
    'norm_bc power:p=2 n=1000 scale=1000': '0x1.3351a3ef2c054p+17',
    'norm_bc power:p=2 n=10000 scale=0.001': '0x1.d626191507cf5p-2',
    'norm_bc power:p=2 n=10000 scale=1': '0x1.d66592c10b4dbp+8',
    'norm_bc power:p=2 n=10000 scale=1000': '0x1.c9670425a6d56p+18',
    'norm_bc power:p=2 n=3 scale=0.001': '0x1.0a3bc73ca0ddcp-8',
    'norm_bc power:p=2 n=3 scale=1': '0x1.0d5ac455993a0p+0',
    'norm_bc power:p=2 n=3 scale=1000': '0x1.109de8eccbd7ep+12',
    'norm_bc power:p=3 n=1 scale=0.001': '0x1.5d49dfbc52a7bp-10',
    'norm_bc power:p=3 n=1 scale=1': '0x1.2d74cb7a0421dp-1',
    'norm_bc power:p=3 n=1 scale=1000': '0x1.cbdb337aa77efp+9',
    'norm_bc power:p=3 n=100 scale=0.001': '0x1.10292e69a6046p-6',
    'norm_bc power:p=3 n=100 scale=1': '0x1.f5e6ad5c55848p+3',
    'norm_bc power:p=3 n=100 scale=1000': '0x1.beeeddd8ecaeep+13',
    'norm_bc power:p=3 n=1000 scale=0.001': '0x1.1740351d7f9aep-5',
    'norm_bc power:p=3 n=1000 scale=1': '0x1.1a2c4dc8d223dp+5',
    'norm_bc power:p=3 n=1000 scale=1000': '0x1.18ba36614ed4ep+15',
    'norm_bc power:p=3 n=10000 scale=0.001': '0x1.2c90b6bb0feb6p-4',
    'norm_bc power:p=3 n=10000 scale=1': '0x1.2c70a1180aaf0p+6',
    'norm_bc power:p=3 n=10000 scale=1000': '0x1.2328e8154e43ep+16',
    'norm_bc power:p=3 n=3 scale=0.001': '0x1.509b25b34d1eep-9',
    'norm_bc power:p=3 n=3 scale=1': '0x1.32b3f691ad8e8p+0',
    'norm_bc power:p=3 n=3 scale=1000': '0x1.4cef13a3eef08p+11',
    'schauder_tail p=1 n=1 counting': '0x1.31329fb981c43p+10',
    'schauder_tail p=1 n=1 finite': '0x1.b8057d0c31493p+13',
    'schauder_tail p=1 n=10 counting': '0x1.3949f65179d56p+10',
    'schauder_tail p=1 n=10 finite': '0x1.a40cbba4d5f96p+13',
    'schauder_tail p=1 n=500 counting': '0x1.3b64bd5de7b91p+9',
    'schauder_tail p=1 n=500 finite': '0x1.9198aa2a414f2p+12',
    'schauder_tail p=1 n=999 counting': '0x1.185924fa94026p+0',
    'schauder_tail p=1 n=999 finite': '0x1.76383ff0932c7p-7',
    'schauder_tail p=1.5 n=1 counting': '0x1.0595315d3a0a8p+7',
    'schauder_tail p=1.5 n=1 finite': '0x1.4de985ead5eacp+9',
    'schauder_tail p=1.5 n=10 counting': '0x1.0bb9408f6ce03p+7',
    'schauder_tail p=1.5 n=10 finite': '0x1.43a8c3b544b4dp+9',
    'schauder_tail p=1.5 n=500 counting': '0x1.5292a25b68d83p+6',
    'schauder_tail p=1.5 n=500 finite': '0x1.8aa29334c1823p+8',
    'schauder_tail p=1.5 n=999 counting': '0x1.185924fa94026p+0',
    'schauder_tail p=1.5 n=999 finite': '0x1.60a58e559a38ap-5',
    'schauder_tail p=2 n=1 counting': '0x1.5f04e869aa8b5p+5',
    'schauder_tail p=2 n=1 finite': '0x1.2a85bcf69ba1dp+7',
    'schauder_tail p=2 n=10 counting': '0x1.665bdd0fcc75ap+5',
    'schauder_tail p=2 n=10 finite': '0x1.22eb87b2fb87ap+7',
    'schauder_tail p=2 n=10 rule 1/i counting': '0x1.f378f9bee7b55p-2',
    'schauder_tail p=2 n=10 rule c/n counting(10**6)': '0x1.ba4079c1c547fp-3',
    'schauder_tail p=2 n=500 counting': '0x1.fbdefbe80304ep+4',
    'schauder_tail p=2 n=500 finite': '0x1.911003acf86a7p+6',
    'schauder_tail p=2 n=999 counting': '0x1.185924fa94026p+0',
    'schauder_tail p=2 n=999 finite': '0x1.5654c5779df8ap-4',
    'schauder_tail p=3 n=1 counting': '0x1.e98dea61eaa21p+3',
    'schauder_tail p=3 n=1 finite': '0x1.1635510900e29p+5',
    'schauder_tail p=3 n=10 counting': '0x1.f238861acabafp+3',
    'schauder_tail p=3 n=10 finite': '0x1.1056c1d6a750dp+5',
    'schauder_tail p=3 n=500 counting': '0x1.8bfa6cc2b11c6p+3',
    'schauder_tail p=3 n=500 finite': '0x1.a86206ac46f60p+4',
    'schauder_tail p=3 n=999 counting': '0x1.185924fa94026p+0',
    'schauder_tail p=3 n=999 finite': '0x1.4c513c0a1d058p-3',
}


def test_every_case_has_a_reference():
    assert sorted(CASES) == sorted(REFERENCE)


@pytest.mark.parametrize("case", sorted(CASES))
def test_gauge_keeps_its_bits(case):
    assert outcome(CASES[case]) == REFERENCE[case]


# ------------------------------------------- lazy power gauges, closed forms


def zeta_tail(s, n):
    """``sum_{k >= n} k^-s`` by Euler-Maclaurin, through the fifth derivative."""
    return (
        n ** (1 - s) / (s - 1)
        + n**-s / 2
        + s * n ** (-s - 1) / 12
        - s * (s + 1) * (s + 2) * n ** (-s - 3) / 720
        + s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * n ** (-s - 5) / 30240
    )


def counting_tail(c, s, p, offset):
    """``||c k^-s 1_{>offset}||`` under ``power:p`` on ``counting``: a
    ``math.fsum`` over 999 atoms past the offset, then Euler-Maclaurin."""
    if s * p <= 1:
        return math.inf
    first = offset + 1000
    head = math.fsum(k ** (-s * p) for k in range(offset + 1, first))
    return c * (head + zeta_tail(s * p, first)) ** (1 / p)


def geometric_half_tail(rule, p, offset, last=3000):
    """``||rule 1_{>offset}||`` under ``power:p`` on ``geometric(0.5)``: a
    ``math.fsum`` over the atoms ``offset + 1..last``, with the weights
    scaled by ``2^offset`` so that no term is subnormal."""
    s = math.fsum(rule(k) ** p * 0.5 ** (k - 1 - offset) for k in range(offset + 1, last + 1))
    return s ** (1 / p) * 2.0 ** (-offset / p)


def closed_form(case):
    """A lazy power case's gauge from stdlib floats alone: +inf where the
    series diverges, 0 or a subnormal where the gauge lies below the floats."""
    if case == "schauder_tail p=2 n=10 rule 1/i counting":
        return counting_tail(1.0, 1, 2.0, 10) * math.sqrt(2.5)  # components 1/i, 2/i
    if case == "schauder_tail p=2 n=10 rule c/n counting(10**6)":
        return counting_tail(0.7, 1, 2.0, 10)
    _, spec, rule, name, offset = case.split()
    p, offset = float(spec.split("=")[1]), int(offset.split("=")[1])
    if name == "geometric:0.5":
        return geometric_half_tail(LAZY_RULES[rule], p, offset)
    if rule == "c*0.9^n":
        q = 0.9**p
        return 0.7 * (q ** (offset + 1) / (1 - q)) ** (1 / p)
    return counting_tail(0.7, {"c/n": 1, "c/n^2": 2}[rule], p, offset)


LAZY_POWER = [
    case
    for case in CASES
    if case.startswith("luxemburg_norm power") and case.split()[2] in LAZY_RULES
] + [case for case in CASES if " rule " in case]


def test_the_lazy_power_cases_are_the_rules_and_the_rule_tails():
    assert len(LAZY_POWER) == 74


@pytest.mark.parametrize("case", LAZY_POWER)
def test_a_lazy_power_gauge_meets_its_closed_form(case):
    want = closed_form(case)
    try:
        got = CASES[case]()
    except BCOrliczError:
        assert not sys.float_info.min <= want < math.inf, want
        return
    assert abs(got - want) <= 1e-12 * want, (got, want)


# c/n past 1020, 1030 and 1060 on geometric(0.5, 10**6): the tail's level
# sits near the bottom of the floats, where the gauge, its reciprocal or
# the scaled level (sup / lam)^p leaves them.  Each case keeps its answer
# to a few ulps, or its refusal; none raises a bare OverflowError, and an
# answer lies within 1e-12 of the fsum
EDGE_TAILS = {
    (1020, 1): "the power:p=1 gauge 1.2192208803813e-310 has no finite reciprocal in floats",
    (1020, 2): "0x1.fbd8f47b97c45p-521",
    (1020, 3): "0x1.c470ebe0c1be9p-351",
    (1030, 1): "the power:p=1 gauge 1.1791080861e-313 has no finite reciprocal in floats",
    (1030, 2): "I_phi(f/lam) overflows floats at the solved power:p=2 gauge "
    "8.943073338376296e-159, so it is not certified",
    (1030, 3): "I_phi(f/lam) overflows floats at the solved power:p=3 gauge "
    "3.785571499277663e-107, so it is not certified",
    **{
        (1060, p): f"the probe of the power:p={p} modular is inconclusive after 998940 "
        "atoms, so no gauge can be certified; raise n_max"
        for p in (1, 2, 3)
    },
}


@pytest.mark.parametrize("offset, p", list(EDGE_TAILS), ids=[f"{o}-p{p}" for o, p in EDGE_TAILS])
def test_a_tail_near_the_bottom_of_the_floats_answers_or_is_refused(offset, p):
    rule, space, want = LAZY_RULES["c/n"], LAZY_SPACES["geometric:0.5"](), EDGE_TAILS[offset, p]
    try:
        lam = luxemburg_norm(OrliczFunction.power(p), rule, space, offset=offset)
    except UnsupportedInstanceError as exc:
        assert str(exc) == want
        return
    truth = geometric_half_tail(rule, p, offset)
    assert abs(lam - truth) <= 1e-12 * truth
    if want.startswith("0x"):
        assert abs(lam - float.fromhex(want)) <= 4 * math.ulp(lam)
