"""DNS resource records and responses.

Names are handled as lowercase, trailing-dot-free strings throughout the
codebase; :func:`normalize_name` is the single canonicalization point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.ipv4 import IPv4Address


class RRType(enum.Enum):
    """The record types the methodology touches."""

    A = "A"
    CNAME = "CNAME"
    NS = "NS"
    SOA = "SOA"
    AXFR = "AXFR"


#: Memo for :func:`normalize_name`, mapping each input seen to its
#: normal form.  Capped like ``DnsInfrastructure._ZONE_CACHE_MAX``: on
#: overflow the whole dict is cleared, and the working set refills it.
_NORMALIZED: Dict[str, str] = {}
_NORMALIZED_MAX = 131072


def normalize_name(name: str) -> str:
    """Lowercase and strip any trailing dot from a domain name.

    Memoized in a plain module dict: names are normalized once at
    :class:`ResourceRecord` construction but re-enter this function on
    every ``zone_for``/``lookup`` hop, so a few tens of thousands of
    strings account for hundreds of thousands of calls per run.  An
    input that is already normal is stored and returned as itself, so
    such an entry costs one string, not two.
    """
    normal = _NORMALIZED.get(name)
    if normal is not None:
        return normal
    normal = name.strip().lower()
    if normal.endswith("."):
        normal = normal[:-1]
    if not normal:
        raise ValueError("empty domain name")
    if normal == name:
        normal = name
    if len(_NORMALIZED) >= _NORMALIZED_MAX:
        _NORMALIZED.clear()
    _NORMALIZED[name] = normal
    return normal


def parent_of(name: str) -> Optional[str]:
    """The name with its leftmost label removed, or None at a TLD/root."""
    _, dot, rest = name.partition(".")
    return rest if dot else None


@dataclass(frozen=True, slots=True, init=False)
class ResourceRecord:
    """One DNS resource record.

    ``value`` is an :class:`IPv4Address` for A records and a domain name
    string for CNAME/NS records.
    """

    name: str
    rtype: RRType
    value: object
    ttl: int = 300

    def __init__(
        self, name: str, rtype: RRType, value: object, ttl: int = 300
    ) -> None:
        # Normalize first, then set each field once: a world build
        # makes one record per DNS name it deploys.
        name = normalize_name(name)
        if rtype is RRType.A:
            if not isinstance(value, IPv4Address):
                value = IPv4Address.parse(str(value))
        elif rtype is RRType.CNAME or rtype is RRType.NS:
            value = normalize_name(str(value))
        if ttl < 0:
            raise ValueError(f"negative TTL: {ttl}")
        set_field = object.__setattr__
        set_field(self, "name", name)
        set_field(self, "rtype", rtype)
        set_field(self, "value", value)
        set_field(self, "ttl", ttl)

    def __str__(self) -> str:
        return f"{self.name} {self.ttl} IN {self.rtype.value} {self.value}"


@dataclass(slots=True)
class DnsResponse:
    """The answer a stub resolver hands back for one query.

    ``chain`` is the followed CNAME chain in order (empty when the name
    resolves directly to addresses); ``addresses`` the terminal A-record
    values; ``ns_names`` populated for NS queries.  ``exists`` is False
    for NXDOMAIN.  A resolver hands out lists the caller owns; the
    static-resolution index's shared memo entries hold tuples instead
    (:meth:`~repro.dns.staticindex.StaticResolutionIndex.peek`).
    """

    qname: str
    qtype: RRType
    exists: bool = False
    chain: List[str] = field(default_factory=list)
    addresses: List[IPv4Address] = field(default_factory=list)
    ns_names: List[str] = field(default_factory=list)
    from_cache: bool = False
    ttl: int = 0

    @property
    def final_cname(self) -> Optional[str]:
        """The last CNAME in the chain, if any."""
        return self.chain[-1] if self.chain else None

    def cname_contains(self, *fragments: str) -> bool:
        """True if any CNAME in the chain contains any given fragment.

        This is how the paper's heuristics detect ELB
        (``elb.amazonaws.com``), Heroku, Beanstalk, Cloud Services
        (``cloudapp.net``), Traffic Manager, and the Azure CDN.
        """
        return any(
            fragment in cname for cname in self.chain for fragment in fragments
        )
