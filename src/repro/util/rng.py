"""Deterministic random-number management.

Every stochastic element of the simulator (run-to-run noise, region
imbalance profiles, search tie-breaking) draws from a generator derived
from a *root seed* plus a stable string key, so that

* whole experiments are reproducible bit-for-bit given the seed, and
* adding a new consumer of randomness never perturbs existing streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(root: int, *keys: object) -> int:
    """Derive a child seed from ``root`` and a sequence of hashable keys.

    The derivation is a SHA-256 over the decimal root and the ``repr``
    of each key, truncated to 64 bits.  It is stable across processes
    and Python versions (unlike ``hash``).
    """
    h = hashlib.sha256()
    h.update(str(int(root)).encode())
    for key in keys:
        h.update(b"\x1f")
        h.update(repr(key).encode())
    return int.from_bytes(h.digest()[:8], "little") & _MASK64


def rng_for(root: int, *keys: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for a derived stream."""
    return np.random.default_rng(derive_seed(root, *keys))


# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx);
# ``test_util_rng`` checks the lane-wise copy below against numpy itself.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
_POOL_SIZE = 4
#: words of SeedSequence state PCG64 asks for: two 128-bit integers.
_STATE_WORDS = 8
#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, ...]:
    """The xor and multiply constants of ``n`` successive hashmix
    calls, as two ``(n, 1)`` columns.  SeedSequence's running hash
    constant never depends on the data, so every lane shares them."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, _STATE_WORDS)
#: per pool word, the other words it is mixed into, in numpy's order
_MIX_INTO = [
    [dst for dst in range(_POOL_SIZE) if dst != src]
    for src in range(_POOL_SIZE)
]
#: the pool word each state word hashes
_STATE_FROM = [i % _POOL_SIZE for i in range(_STATE_WORDS)]


def _hashmix(
    value: np.ndarray, xor: np.ndarray, mult: np.ndarray
) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def seed_sequence_state(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(8, np.uint32)`` for
    every 64-bit seed ``s`` in ``seeds`` at once; row ``j`` of the
    ``(8, len(seeds))`` result is word ``j`` of each seed's state.

    A 64-bit seed is at most two 32-bit entropy words, and the missing
    words of the four-word pool hash like a zero word, so every seed
    takes the same path and the mixing runs on uint32 lanes.  Each
    step works on the whole pool at once: a word is mixed into the
    three others with three hash constants in one broadcast.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    xor_a, mult_a = _HASH_A
    with np.errstate(over="ignore"):
        pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
        pool[0] = seeds.astype(np.uint32)
        pool[1] = (seeds >> np.uint64(32)).astype(np.uint32)
        pool = _hashmix(pool, xor_a[:_POOL_SIZE], mult_a[:_POOL_SIZE])
        at = _POOL_SIZE
        for src, dst in enumerate(_MIX_INTO):
            consts = slice(at, at + len(dst))
            at += len(dst)
            pool[dst] = _mix(
                pool[dst], _hashmix(pool[src], xor_a[consts], mult_a[consts])
            )
        return _hashmix(pool[_STATE_FROM], *_HASH_B)


#: first and largest number of indices one refill of an
#: :class:`IndexedStream` seeds; blocks double between the two.
_FIRST_BLOCK = 16
_MAX_BLOCK = 512


class IndexedStream:
    """The streams ``rng_for(root, *keys, index)`` for many integer
    ``index`` values, without building a generator per index.

    ``normal(index, scale)`` equals
    ``rng_for(root, *keys, index).normal(0.0, scale)`` bit for bit, for
    any index in any order.  The derivation is the same: SHA-256 (the
    fixed prefix hashed once), numpy's ``SeedSequence`` (run lane-wise
    over a block of upcoming indices), PCG64's seeding step (Python
    integers), then numpy's own standard normal draw, scaled as
    ``Generator.normal`` scales it, on one reused PCG64 set to that
    state.  An index outside the current block starts a new block
    there.
    """

    def __init__(self, root: int, *keys: object) -> None:
        prefix = hashlib.sha256()
        prefix.update(str(int(root)).encode())
        for key in keys:
            prefix.update(b"\x1f")
            prefix.update(repr(key).encode())
        prefix.update(b"\x1f")
        self._prefix = prefix
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)
        # the PCG64.state dict, refilled in place for each draw
        self._lcg = {"state": 0, "inc": 0}
        self._pcg_state = {
            "bit_generator": "PCG64",
            "state": self._lcg,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._block_size = _FIRST_BLOCK
        self._start = 0
        #: (state, increment) of the PCG64 seeded for each index of
        #: the block starting at ``_start``
        self._states: list[tuple[int, int]] = []

    def normal(self, index: int, scale: float) -> float:
        offset = index - self._start
        if not 0 <= offset < len(self._states):
            self._fill(index)
            offset = 0
        lcg = self._lcg
        lcg["state"], lcg["inc"] = self._states[offset]
        self._bit_generator.state = self._pcg_state
        # what numpy's C ``random_normal`` computes for loc 0.0, without
        # ``Generator.normal``'s argument checks and broadcasting
        return 0.0 + scale * self._generator.standard_normal()

    def _fill(self, start: int) -> None:
        n = self._block_size
        self._block_size = min(2 * n, _MAX_BLOCK)
        digests = []
        for index in range(start, start + n):
            h = self._prefix.copy()
            h.update(repr(index).encode())
            digests.append(h.digest()[:8])
        seeds = np.frombuffer(b"".join(digests), dtype="<u8")
        words = seed_sequence_state(seeds).astype(np.uint64)
        # generate_state(4, np.uint64) pairs the uint32 words
        # little-endian; PCG64 takes (state, increment) high word first
        halves = (words[0::2] | (words[1::2] << np.uint64(32))).tolist()
        self._start = start
        self._states = [
            _pcg64_seed(
                (state_hi << 64) | state_lo, (inc_hi << 64) | inc_lo
            )
            for state_hi, state_lo, inc_hi, inc_lo in zip(*halves)
        ]


def _pcg64_seed(initstate: int, initseq: int) -> tuple[int, int]:
    """The (state, increment) ``pcg_setseq_128_srandom_r`` leaves."""
    inc = ((initseq << 1) | 1) & _MASK128
    return ((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc
