"""Frozen gauge values, bit for bit.

Every case below is a seeded gauge: ``norm_bc`` on finite spaces of 1 to
10^4 atoms with moduli scaled by 1e-3, 1 and 1e3, ``luxemburg_norm`` of
arrays past offsets on finite, ``counting`` and ``geometric:0.5`` spaces,
``schauder_tail`` past ``n > 0``, and real-valued input arrays.  Each
value's ``float.hex`` was recorded when the finite certificate still read
``f`` itself rather than the moduli the solve had read; the gauge must keep
every bit, since ``|u| = u`` for a float ``u >= 0`` and ``|x + 0j| = |x|``.
To record a new case, append it to ``CASES`` and print
``float.hex(value)`` from the implementation the reference is frozen at.
"""

import numpy as np
import pytest

from bcorlicz import (
    AtomicMeasureSpace,
    BCSequence,
    OrliczFunction,
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

REFERENCE = {
    'luxemburg_norm entropy counting float array': '0x1.53b803eb62e1cp+7',
    'luxemburg_norm entropy counting int array': '0x1.556b1057703b7p+7',
    'luxemburg_norm entropy counting offset=0': '0x1.65f766fc6d14dp+4',
    'luxemburg_norm entropy counting offset=1': '0x1.721b763f4cedap+4',
    'luxemburg_norm entropy counting offset=1000': '0x0.0p+0',
    'luxemburg_norm entropy counting offset=150': '0x1.1cb1821225c2bp+4',
    'luxemburg_norm entropy counting offset=17': '0x1.71466a15cabc8p+4',
    'luxemburg_norm entropy counting offset=299': '0x1.454db4872f8aap+1',
    'luxemburg_norm entropy counting offset=300': '0x0.0p+0',
    'luxemburg_norm entropy finite float array': '0x1.977e3cf8b78d2p+7',
    'luxemburg_norm entropy finite int array': '0x1.619d72501cb9fp+7',
    'luxemburg_norm entropy finite offset=0': '0x1.be160fc526b12p+4',
    'luxemburg_norm entropy finite offset=1': '0x1.adb8570ef051ep+4',
    'luxemburg_norm entropy finite offset=1000': '0x0.0p+0',
    'luxemburg_norm entropy finite offset=150': '0x1.56039a38a8737p+4',
    'luxemburg_norm entropy finite offset=17': '0x1.aa5e0ce67357dp+4',
    'luxemburg_norm entropy finite offset=299': '0x1.ef54b167629c1p+1',
    'luxemburg_norm entropy finite offset=300': '0x0.0p+0',
    'luxemburg_norm entropy geometric:0.5 float array': '0x1.84720beac511cp+3',
    'luxemburg_norm entropy geometric:0.5 int array': '0x1.06a9a6c8eaac4p+3',
    'luxemburg_norm entropy geometric:0.5 offset=0': '0x1.c8562fe78fddap+0',
    'luxemburg_norm entropy geometric:0.5 offset=1': '0x1.0684152dbd3d1p+0',
    'luxemburg_norm entropy geometric:0.5 offset=1000': '0x0.0p+0',
    'luxemburg_norm entropy geometric:0.5 offset=150': '0x1.40c4930f40b7fp-142',
    'luxemburg_norm entropy geometric:0.5 offset=17': '0x1.1de62e0d94df5p-13',
    'luxemburg_norm entropy geometric:0.5 offset=299': '0x1.dec4eae876832p-292',
    'luxemburg_norm entropy geometric:0.5 offset=300': '0x0.0p+0',
    'luxemburg_norm exp counting float array': '0x1.09575bb57a31ap+7',
    'luxemburg_norm exp counting int array': '0x1.cf95cc656d8b5p+6',
    'luxemburg_norm exp counting offset=0': '0x1.06ed7cfa9b4dep+4',
    'luxemburg_norm exp counting offset=1': '0x1.0f8c4715215a1p+4',
    'luxemburg_norm exp counting offset=1000': '0x0.0p+0',
    'luxemburg_norm exp counting offset=150': '0x1.a76a7e46b757bp+3',
    'luxemburg_norm exp counting offset=17': '0x1.0f374dcb07f91p+4',
    'luxemburg_norm exp counting offset=299': '0x1.5febb70a4543dp+1',
    'luxemburg_norm exp counting offset=300': '0x0.0p+0',
    'luxemburg_norm exp finite float array': '0x1.0fd33e6b5ca5ep+7',
    'luxemburg_norm exp finite int array': '0x1.e89b2441d2c8ap+6',
    'luxemburg_norm exp finite offset=0': '0x1.45d6244e92171p+4',
    'luxemburg_norm exp finite offset=1': '0x1.39d9de33f8c28p+4',
    'luxemburg_norm exp finite offset=1000': '0x0.0p+0',
    'luxemburg_norm exp finite offset=150': '0x1.f7ece60b0e8f9p+3',
    'luxemburg_norm exp finite offset=17': '0x1.37cdf41d5fdb0p+4',
    'luxemburg_norm exp finite offset=299': '0x1.de7b854611b29p+1',
    'luxemburg_norm exp finite offset=300': '0x0.0p+0',
    'luxemburg_norm exp geometric:0.5 float array': '0x1.302044b490a08p+3',
    'luxemburg_norm exp geometric:0.5 int array': '0x1.fafe66050eb52p+2',
    'luxemburg_norm exp geometric:0.5 offset=0': '0x1.bd1a811f2659ep+0',
    'luxemburg_norm exp geometric:0.5 offset=1': '0x1.4b6f198e52da5p+0',
    'luxemburg_norm exp geometric:0.5 offset=1000': '0x0.0p+0',
    'luxemburg_norm exp geometric:0.5 offset=150': '0x1.ed995b07d540fp-6',
    'luxemburg_norm exp geometric:0.5 offset=17': '0x1.5a55bb3bf5321p-3',
    'luxemburg_norm exp geometric:0.5 offset=299': '0x1.76d8152a373d7p-8',
    'luxemburg_norm exp geometric:0.5 offset=300': '0x0.0p+0',
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
    'luxemburg_norm power:p=1.5 counting float array': '0x1.87e852bb443fep+8',
    'luxemburg_norm power:p=1.5 counting int array': '0x1.72d56fa190b58p+8',
    'luxemburg_norm power:p=1.5 counting offset=0': '0x1.bc2a603f47c4cp+5',
    'luxemburg_norm power:p=1.5 counting offset=1': '0x1.cc173bb2a9430p+5',
    'luxemburg_norm power:p=1.5 counting offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=1.5 counting offset=150': '0x1.3f9a14b23d5aep+5',
    'luxemburg_norm power:p=1.5 counting offset=17': '0x1.c7430b5ffd270p+5',
    'luxemburg_norm power:p=1.5 counting offset=299': '0x1.935e8351d87fap+1',
    'luxemburg_norm power:p=1.5 counting offset=300': '0x0.0p+0',
    'luxemburg_norm power:p=1.5 finite float array': '0x1.d9e852d175e38p+8',
    'luxemburg_norm power:p=1.5 finite int array': '0x1.b00c5fea1bb90p+8',
    'luxemburg_norm power:p=1.5 finite offset=0': '0x1.20d0b94bb3e65p+6',
    'luxemburg_norm power:p=1.5 finite offset=1': '0x1.15a777ea93866p+6',
    'luxemburg_norm power:p=1.5 finite offset=1000': '0x0.0p+0',
    'luxemburg_norm power:p=1.5 finite offset=150': '0x1.9c17e3d2afa6dp+5',
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
    'norm_bc entropy n=1 scale=0.001': '0x1.21b538e2edd24p-10',
    'norm_bc entropy n=1 scale=1': '0x1.36c1e1af96c10p-2',
    'norm_bc entropy n=1 scale=1000': '0x1.46812aa6a4efep+9',
    'norm_bc entropy n=100 scale=0.001': '0x1.94af2ca61224ap-5',
    'norm_bc entropy n=100 scale=1': '0x1.680e7d95ef2e5p+5',
    'norm_bc entropy n=100 scale=1000': '0x1.1cc2b1e9b4780p+15',
    'norm_bc entropy n=1000 scale=0.001': '0x1.24dfc979a400bp-3',
    'norm_bc entropy n=1000 scale=1': '0x1.2912aca87adf1p+7',
    'norm_bc entropy n=1000 scale=1000': '0x1.326869a96e3f7p+17',
    'norm_bc entropy n=10000 scale=0.001': '0x1.d5ab7209f23bap-2',
    'norm_bc entropy n=10000 scale=1': '0x1.d5eb3578e07f3p+8',
    'norm_bc entropy n=10000 scale=1000': '0x1.c8f137e975f11p+18',
    'norm_bc entropy n=3 scale=0.001': '0x1.f541f1299a08fp-9',
    'norm_bc entropy n=3 scale=1': '0x1.915903c6ecfa5p-1',
    'norm_bc entropy n=3 scale=1000': '0x1.023095b564f83p+12',
    'norm_bc exp n=1 scale=0.001': '0x1.333dcb5182d9bp-10',
    'norm_bc exp n=1 scale=1': '0x1.ed472ab796782p-2',
    'norm_bc exp n=1 scale=1000': '0x1.8527b3c4177f6p+9',
    'norm_bc exp n=100 scale=0.001': '0x1.2350726fc3fe1p-5',
    'norm_bc exp n=100 scale=1': '0x1.03b125d5f99cap+5',
    'norm_bc exp n=100 scale=1000': '0x1.9e1acfa9ad7f6p+14',
    'norm_bc exp n=1000 scale=0.001': '0x1.a0e31bbc84c32p-4',
    'norm_bc exp n=1000 scale=1': '0x1.a6d52f58bde3bp+6',
    'norm_bc exp n=1000 scale=1000': '0x1.b3d5cf6ff04e2p+16',
    'norm_bc exp n=10000 scale=0.001': '0x1.4cc3f00c14464p-2',
    'norm_bc exp n=10000 scale=1': '0x1.4cf0a269502f6p+8',
    'norm_bc exp n=10000 scale=1000': '0x1.43bd58bac7db7p+18',
    'norm_bc exp n=3 scale=0.001': '0x1.8efdae5722592p-9',
    'norm_bc exp n=3 scale=1': '0x1.00492b0af8de9p+0',
    'norm_bc exp n=3 scale=1000': '0x1.965e5753d603bp+11',
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
    'norm_bc power:p=1.5 n=100 scale=0.001': '0x1.3e80853894d8fp-3',
    'norm_bc power:p=1.5 n=100 scale=1': '0x1.1067943dc8588p+7',
    'norm_bc power:p=1.5 n=100 scale=1000': '0x1.8b737bc7bda29p+16',
    'norm_bc power:p=1.5 n=1000 scale=0.001': '0x1.41d0722d4779bp-1',
    'norm_bc power:p=1.5 n=1000 scale=1': '0x1.49813ea22e16ep+9',
    'norm_bc power:p=1.5 n=1000 scale=1000': '0x1.5c623ab5db1c4p+19',
    'norm_bc power:p=1.5 n=10000 scale=0.001': '0x1.7e0f36413b899p+1',
    'norm_bc power:p=1.5 n=10000 scale=1': '0x1.7fd5948d99472p+11',
    'norm_bc power:p=1.5 n=10000 scale=1000': '0x1.7546a56767fbap+21',
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
    'norm_bc power:p=3 n=10000 scale=0.001': '0x1.2c90b6bb0feb5p-4',
    'norm_bc power:p=3 n=10000 scale=1': '0x1.2c70a1180aaf2p+6',
    'norm_bc power:p=3 n=10000 scale=1000': '0x1.2328e8154e43dp+16',
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
    'schauder_tail p=1.5 n=1 finite': '0x1.4de985ead5eabp+9',
    'schauder_tail p=1.5 n=10 counting': '0x1.0bb9408f6ce03p+7',
    'schauder_tail p=1.5 n=10 finite': '0x1.43a8c3b544b4dp+9',
    'schauder_tail p=1.5 n=500 counting': '0x1.5292a25b68d83p+6',
    'schauder_tail p=1.5 n=500 finite': '0x1.8aa29334c1827p+8',
    'schauder_tail p=1.5 n=999 counting': '0x1.185924fa94026p+0',
    'schauder_tail p=1.5 n=999 finite': '0x1.60a58e559a38ap-5',
    'schauder_tail p=2 n=1 counting': '0x1.5f04e869aa8b5p+5',
    'schauder_tail p=2 n=1 finite': '0x1.2a85bcf69ba1dp+7',
    'schauder_tail p=2 n=10 counting': '0x1.665bdd0fcc75ap+5',
    'schauder_tail p=2 n=10 finite': '0x1.22eb87b2fb87ap+7',
    'schauder_tail p=2 n=10 rule 1/i counting': '0x1.f378f9bee7b4bp-2',
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
    assert float.hex(CASES[case]()) == REFERENCE[case]
