"""Reed-Solomon codes over prime fields.

The dimension-reduction step of the clustering reductions only needs an
encoder plus a certified relative-distance bound of 1 - 3/sqrt(q); RS codes
evaluated at every field element supply both at desk scale.  Block length is
always q and the bijection between symbols and field elements is the identity
on {0, ..., q-1}.
"""

import math
import random
from collections import namedtuple
from fractions import Fraction
from itertools import product

from .errors import check_budget

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    # deterministic Miller-Rabin, valid far beyond any q used here
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    """Smallest prime >= n."""
    n = max(2, n)
    while not is_prime(n):
        n += 1
    return n


class RsCode(namedtuple("RsCode", "q eta")):
    """Field size q, a prime and also the block length; message length eta."""
    __slots__ = ()

    def __new__(cls, q, eta):
        if not is_prime(q):
            raise ValueError(f"field size {q} is not prime")
        if not 1 <= eta <= q:
            raise ValueError(f"need 1 <= eta <= q, got eta={eta}")
        return super().__new__(cls, q, eta)

    @property
    def ell(self):
        return self.q

    @property
    def relative_distance(self):
        return 1 - Fraction(self.eta - 1, self.q)


def rs_encode(code, message):
    """Evaluate the message polynomial sum_j m_j * x^j at every field element."""
    message = tuple(message)
    if len(message) != code.eta:
        raise ValueError(f"message length {len(message)} != eta={code.eta}")
    if any(not (0 <= m < code.q) for m in message):
        raise ValueError("message symbols must lie in [0, q)")
    q = code.q
    out = []
    for x in range(q):
        acc = 0
        for m in reversed(message):  # Horner
            acc = (acc * x + m) % q
        out.append(acc)
    return tuple(out)


def message_for_element(code, u):
    """Canonical message for universe element u >= 1: base-q digits of u-1."""
    v = u - 1
    if not 0 <= v < code.q ** code.eta:
        raise ValueError(f"element {u} does not fit in q^eta = {code.q ** code.eta} messages")
    digits = []
    for _ in range(code.eta):
        digits.append(v % code.q)
        v //= code.q
    return tuple(digits)


def verify_relative_distance(code, mode="exhaustive", seed=None, budget=1024,
                             samples=10_000):
    """Minimum observed relative distance over codeword pairs.

    Exhaustive mode compares every pair (refusing if q^eta exceeds the
    budget) and returns the true minimum as an exact rational.  Sampled mode
    compares seeded random pairs; the result is only an upper bound on the
    distance, good for smoke checks.
    """
    if mode == "exhaustive":
        check_budget(code.q ** code.eta, budget, "codewords")
        words = [rs_encode(code, msg) for msg in product(range(code.q), repeat=code.eta)]
        best = code.ell
        for i in range(len(words)):
            wi = words[i]
            for j in range(i + 1, len(words)):
                wj = words[j]
                d = sum(1 for a, b in zip(wi, wj) if a != b)
                if d < best:
                    best = d
        return Fraction(best, code.ell)
    if mode == "sampled":
        rng = random.Random(seed)
        best = code.ell
        for _ in range(samples):
            m1 = tuple(rng.randrange(code.q) for _ in range(code.eta))
            m2 = tuple(rng.randrange(code.q) for _ in range(code.eta))
            if m1 == m2:
                continue
            w1, w2 = rs_encode(code, m1), rs_encode(code, m2)
            d = sum(1 for a, b in zip(w1, w2) if a != b)
            best = min(best, d)
        return Fraction(best, code.ell)
    raise ValueError(f"unknown mode {mode!r}")


def distance_bound_ok(code):
    """Exact check of (eta-1)/q <= 3/sqrt(q), i.e. distance >= 1 - 3/sqrt(q)."""
    return (code.eta - 1) ** 2 <= 9 * code.q


def pick_code_params(n, z, y, eps, relaxed=False):
    """Choose a code for a reduction from universe size n and arities (z, y).

    Default mode follows the constant-tracking choice q > (18 z^2 / (eps/11))^2,
    which is astronomically conservative; `relaxed` picks the smallest prime
    >= 18*z*y/eps instead (desk scale), re-verifying the distance inequality
    the reduction actually consumes.  Either way the selected code must
    satisfy the 1 - 3/sqrt(q) relative-distance requirement or this errors.
    """
    if not 0 < eps < 1:
        raise ValueError("need eps in (0, 1)")
    if relaxed:
        q = next_prime(math.ceil(18 * z * y / eps))
    else:
        eps_prime = eps / 11
        q = next_prime(math.floor((18 * z * z / eps_prime) ** 2) + 1)
    eta = 1
    while q ** eta < n:
        eta += 1
    code = RsCode(q=q, eta=eta)
    if not distance_bound_ok(code):
        raise ValueError(
            f"relative distance {code.relative_distance} at q={q}, eta={eta} "
            f"misses the 1 - 3/sqrt(q) requirement; pick a larger q")
    return code
