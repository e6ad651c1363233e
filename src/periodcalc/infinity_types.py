"""Pure dominant weights, infinity types, and the bijection between them.

An infinity type (kappa_1 > ... > kappa_r >= 2; w) classifies the archimedean
component of a regular algebraic cuspidal representation of GL(n).  For odd n
the pair (kappa; w) does not separate the representation from its sgn-twist,
so a sign_choice bit is part of the type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .weil_real import ArchRep, char, disc


@dataclass(frozen=True)
class DominantWeight:
    entries: tuple

    def __post_init__(self):
        e = tuple(int(x) for x in self.entries)
        if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
            raise ValueError("weight must be weakly decreasing")
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class InfinityType:
    n: int
    kappa: tuple
    w: int
    sign_choice: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kappa", tuple(int(k) for k in self.kappa))
        if self.n < 1:
            raise ValueError("rank must be positive")
        r = self.n // 2
        if len(self.kappa) != r:
            raise ValueError(f"kappa must have {r} entries for rank {self.n}")
        if any(self.kappa[i] <= self.kappa[i + 1] for i in range(r - 1)):
            raise ValueError("kappa must be strictly decreasing")
        if r and self.kappa[-1] < 2:
            raise ValueError("kappa entries must be >= 2")
        if self.n % 2 == 0:
            if any((k - self.w) % 2 for k in self.kappa):
                raise ValueError("kappa_i must have the parity of w for even rank")
        else:
            if self.w % 2:
                raise ValueError("w must be even for odd rank")
            if any(k % 2 == 0 for k in self.kappa):
                raise ValueError("kappa_i must be odd for odd rank")
        if self.sign_choice not in (0, 1):
            raise ValueError("sign_choice must be 0 or 1")

    @property
    def r(self) -> int:
        return self.n // 2

    def to_json(self) -> dict:
        return {"n": self.n, "kappa": list(self.kappa), "w": self.w,
                "sign": self.sign_choice}

    @classmethod
    def from_json(cls, data: dict) -> "InfinityType":
        return cls(json_int(data["n"]), tuple(map(json_int, data["kappa"])),
                   json_int(data["w"]), json_int(data.get("sign", 0)))


def json_int(x) -> int:
    """An integer field of a JSON payload; any other value is a TypeError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def is_pure(mu: DominantWeight) -> bool:
    e, n = mu.entries, mu.n
    s = e[0] + e[-1]
    return all(e[i] + e[n - 1 - i] == s for i in range(n))


def weight_to_infinity(mu: DominantWeight) -> InfinityType:
    """Solve mu = -rho_n + (... (kappa_i - 1 - w)/2 ...) for (kappa; w)."""
    if not is_pure(mu):
        raise ValueError("weight is not pure")
    e, n = mu.entries, mu.n
    w = -e[0] - e[-1]
    if n % 2 and w % 2:
        # cannot happen for an integral pure weight, kept as a guard
        raise ValueError("w must be even for odd rank")
    r = n // 2
    kappa = tuple(2 * e[i] + n + 2 - 2 * (i + 1) + w for i in range(r))
    if r and kappa[-1] < 2:
        raise ValueError("weight lies outside the kappa >= 2 range")
    return InfinityType(n, kappa, w)


def infinity_to_weight(t: InfinityType) -> DominantWeight:
    n, w, r = t.n, t.w, t.r
    head = [(t.kappa[i] - n - 2 + 2 * (i + 1) - w) // 2 for i in range(r)]
    mid = [-w // 2] if n % 2 else []
    tail = [-w - head[r - 1 - i] for i in range(r)]
    return DominantWeight(tuple(head + mid + tail))


def signature(t: InfinityType) -> int:
    """The sign (-1)^{r + w/2}, flipped by sign_choice; odd rank only."""
    if t.n % 2 == 0:
        raise ValueError("signature is defined for odd rank only")
    return -1 if (t.r + t.w // 2 + t.sign_choice) % 2 else 1


def interlaces(kappa: tuple, ell: tuple) -> bool:
    """kappa_1 > ell_1 > kappa_2 > ell_2 > ..., for len(ell) <= len(kappa)."""
    return (all(k > l for k, l in zip(kappa, ell))
            and all(l > k for l, k in zip(ell, kappa[1:])))


def is_balanced(pi: InfinityType, sigma: InfinityType) -> bool:
    """Interlacing of the infinity types of a pair of adjacent ranks."""
    if pi.n != sigma.n + 1:
        raise ValueError("ranks must differ by exactly 1 (pi = sigma + 1)")
    return interlaces(pi.kappa, sigma.kappa)


@dataclass(frozen=True)
class Regularity:
    kappa: tuple
    min_kappa_ok: bool

    def gap_regular(self, k: int) -> bool:
        gaps = [self.kappa[i] - self.kappa[i + 1]
                for i in range(len(self.kappa) - 1)]
        return all(g >= k for g in gaps)


def regularity(t: InfinityType) -> Regularity:
    bound = 3 if t.n % 2 == 0 else 5
    ok = (not t.kappa) or min(t.kappa) >= bound
    return Regularity(t.kappa, ok)


def required_gap(t: InfinityType) -> int:
    """Gap-regularity needed by the duality theorem: 4, or 6 when n, w both even."""
    return 6 if (t.n % 2 == 0 and t.w % 2 == 0) else 4


def to_arch_rep(t: InfinityType) -> ArchRep:
    half_w = Fraction(t.w, 2)
    parts = [disc(k, half_w) for k in t.kappa]
    if t.n % 2:
        parts.append(char(t.sign_choice, half_w))
    return ArchRep(tuple(parts))


def twist(t: InfinityType, delta: int, u: int) -> InfinityType:
    """Twist by sgn^delta |.|^u: w shifts by 2u; sgn flips the odd-rank bit."""
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    sign = t.sign_choice
    if t.n % 2:
        sign = (sign + delta) % 2
    return InfinityType(t.n, t.kappa, t.w + 2 * u, sign)
