"""IPv4 addresses and CIDR networks as lightweight value objects.

Addresses are represented internally as unsigned 32-bit integers, which
makes range membership and allocation arithmetic cheap.  The classes are
hashable and totally ordered so they can serve as dictionary keys and be
sorted into interval tables by :class:`repro.net.prefixset.PrefixSet`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

_MAX_IPV4 = 2**32 - 1
_DOTTED_QUAD = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def ip_to_int(text: str) -> int:
    """Parse dotted-quad ``text`` into an unsigned 32-bit integer.

    Raises :class:`ValueError` for malformed input, including octets
    outside ``0..255``.
    """
    match = _DOTTED_QUAD.match(text)
    if match is None:
        raise ValueError(f"not a dotted-quad IPv4 address: {text!r}")
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format unsigned 32-bit integer ``value`` as a dotted quad."""
    if not 0 <= value <= _MAX_IPV4:
        raise ValueError(f"not a 32-bit unsigned value: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True, slots=True)
class IPv4Address:
    """A single IPv4 address.

    >>> IPv4Address.parse("10.0.0.1").value
    167772161
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX_IPV4:
            raise ValueError(f"not a 32-bit unsigned value: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        return cls(ip_to_int(text))

    def __str__(self) -> str:
        return int_to_ip(self.value)

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self.value + offset)

    def slash16(self) -> "IPv4Network":
        """The /16 network containing this address (used by the
        address-proximity cartography method)."""
        return IPv4Network(self.value & 0xFFFF0000, 16)


@dataclass(frozen=True, order=True, slots=True)
class IPv4Network:
    """A CIDR block, normalized so host bits are zero.

    >>> str(IPv4Network.parse("10.1.2.3/16"))
    '10.1.0.0/16'
    """

    network: int
    prefix_len: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"bad prefix length: {self.prefix_len}")
        mask = self.mask
        if self.network & ~mask & _MAX_IPV4:
            object.__setattr__(self, "network", self.network & mask)

    @classmethod
    def parse(cls, text: str) -> "IPv4Network":
        return parse_network(text)

    @property
    def mask(self) -> int:
        if self.prefix_len == 0:
            return 0
        return (_MAX_IPV4 << (32 - self.prefix_len)) & _MAX_IPV4

    @property
    def first(self) -> int:
        return self.network

    # ``last`` and ``num_addresses`` come straight from the two stored
    # ints, with no detour through ``mask``: address allocation reads
    # them once per address.  (Stored as extra fields they would cost
    # every network in the world two more ints.)

    @property
    def last(self) -> int:
        return self.network | ((1 << (32 - self.prefix_len)) - 1)

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.prefix_len)

    def __contains__(self, addr: object) -> bool:
        if isinstance(addr, IPv4Address):
            value = addr.value
        elif isinstance(addr, int):
            value = addr
        elif isinstance(addr, str):
            value = ip_to_int(addr)
        else:
            return False
        return self.first <= value <= self.last

    def contains_network(self, other: "IPv4Network") -> bool:
        return self.first <= other.first and other.last <= self.last

    def overlaps(self, other: "IPv4Network") -> bool:
        return self.first <= other.last and other.first <= self.last

    def subnets(self, new_prefix: int) -> Iterator["IPv4Network"]:
        """Iterate the subnets of this block at ``new_prefix`` length."""
        if new_prefix < self.prefix_len:
            raise ValueError(
                f"new prefix /{new_prefix} is shorter than /{self.prefix_len}"
            )
        step = 1 << (32 - new_prefix)
        for start in range(self.first, self.last + 1, step):
            yield IPv4Network(start, new_prefix)

    def address_at(self, offset: int) -> IPv4Address:
        """The host address ``offset`` addresses into the block."""
        if not 0 <= offset < self.num_addresses:
            raise ValueError(f"offset {offset} outside {self}")
        return IPv4Address(self.network + offset)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"IPv4Network({str(self)!r})"


def parse_network(text: str) -> IPv4Network:
    """Parse ``a.b.c.d/len`` (or a bare address, treated as /32)."""
    if "/" in text:
        addr_text, _, len_text = text.partition("/")
        prefix_len = int(len_text)
    else:
        addr_text, prefix_len = text, 32
    return IPv4Network(ip_to_int(addr_text), prefix_len)
