"""crypto: RSA encryption (SPECjvm2008-style).

A genuine textbook RSA: deterministic Miller-Rabin prime generation
(cached per key strength), block encryption via modular exponentiation.
Figure 7: the workload mode is attributed by input file size
(1/2/4 MB; we encrypt a 1/128-scale buffer and charge the full-size
cost) and the QoS knob is the key strength (768/1024/1280 bits).
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

_SCALE = 128.0

_KEY_CACHE: Dict[int, Tuple[int, int]] = {}


def _is_probable_prime(candidate: int, rng: random.Random,
                       rounds: int = 12) -> bool:
    if candidate < 4:
        return candidate in (2, 3)
    if candidate % 2 == 0:
        return False
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 2)
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _gen_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def rsa_keypair(bits: int) -> Tuple[int, int]:
    """A deterministic (n, e) public key of ``bits`` modulus size."""
    if bits not in _KEY_CACHE:
        rng = random.Random(0xE47 + bits)
        p = _gen_prime(bits // 2, rng)
        q = _gen_prime(bits - bits // 2, rng)
        _KEY_CACHE[bits] = (p * q, 65_537)
    return _KEY_CACHE[bits]


class Crypto(Workload):
    name = "crypto"
    description = "RSA encryption"
    systems = ("A", "B")
    cloc = 381
    ent_changes = 46

    workload_kind = "file size"
    workload_labels = {ES: "1MB", MG: "2MB", FT: "4MB"}
    qos_kind = "encryption key strength"
    qos_labels = {ES: "768", MG: "1024", FT: "1280"}

    # One counted op = one modular squaring on the full-size input.
    work_scale = 2.7e-5

    _SIZES = {ES: 1 << 20, MG: 2 << 20, FT: 4 << 20}
    _QOS = {ES: 768, MG: 1024, FT: 1280}
    _THRESHOLDS = {MG: (1 << 20) * 1.5, FT: 3 << 20}

    def system_scale(self, system: str) -> float:
        return 0.5 if system == "B" else 1.0

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        bits = int(qos)
        n, e = rsa_keypair(bits)
        block_bytes = bits // 8 - 11  # PKCS#1-style padding headroom
        real_bytes = int(size / _SCALE)
        rng = random.Random(seed * 7 + real_bytes)
        payload = rng.randbytes(real_bytes)
        platform.io_bytes(size)  # read the input file
        blocks = 0
        checksum = 0
        for offset in range(0, len(payload), block_bytes):
            block = payload[offset:offset + block_bytes]
            message = int.from_bytes(block, "big")
            cipher = pow(message, e, n)
            checksum ^= cipher & 0xFFFFFFFF
            blocks += 1
        # Cost model: e = 65537 means ~17 modular squarings per block,
        # each ~quadratic in the limb count, plus per-byte streaming
        # overhead (padding, buffering); full-size charge.
        limbs = bits / 64.0
        ops_per_block = 17.0 * limbs * limbs + block_bytes * 40.0
        self.charge(platform, blocks * ops_per_block * _SCALE)
        platform.io_bytes(size * (bits / 8.0) / max(1, block_bytes))
        return TaskResult(units_done=blocks,
                          detail={"checksum": float(checksum),
                                  "key_bits": float(bits)})
