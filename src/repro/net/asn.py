"""A whois-like registry mapping IP prefixes to autonomous systems.

The paper determines the downstream ISP of each traceroute by running
``whois`` on the first non-EC2 hop.  We reproduce that interface: ISP
routers in the simulated Internet get addresses from prefixes registered
here, and the ISP-diversity analysis asks this registry which AS owns a
hop address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.ipv4 import IPv4Network
from repro.net.prefixset import PrefixSet


@dataclass(frozen=True)
class AutonomousSystem:
    """An AS: a number, a human name, and its announced prefixes."""

    number: int
    name: str
    prefixes: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise ValueError(f"AS number must be positive: {self.number}")


class ASRegistry:
    """Registry of autonomous systems supporting whois-style lookups.

    The prefix index is built on the first :meth:`whois` after a
    registration, not on every :meth:`register`: a routing model
    registers a few hundred ISPs before it asks its first question.
    """

    def __init__(self) -> None:
        self._by_number: Dict[int, AutonomousSystem] = {}
        #: Every registered ``(network, AS number)`` block, in order.
        self._blocks: List[Tuple[IPv4Network, int]] = []
        self._prefix_set: Optional[PrefixSet] = None

    def register(
        self, number: int, name: str, prefixes: Iterable[IPv4Network | str]
    ) -> AutonomousSystem:
        """Register an AS announcing ``prefixes``; returns the AS object."""
        if number in self._by_number:
            raise ValueError(f"AS{number} already registered")
        nets = tuple(
            IPv4Network.parse(p) if isinstance(p, str) else p
            for p in prefixes
        )
        asys = AutonomousSystem(number, name, nets)
        self._by_number[number] = asys
        self._blocks.extend((net, number) for net in nets)
        self._prefix_set = None
        return asys

    def get(self, number: int) -> Optional[AutonomousSystem]:
        return self._by_number.get(number)

    def __len__(self) -> int:
        return len(self._by_number)

    def __iter__(self):
        return iter(self._by_number.values())

    def whois(self, addr) -> Optional[AutonomousSystem]:
        """The AS announcing the prefix containing ``addr``, else None."""
        prefix_set = self._prefix_set
        if prefix_set is None:
            prefix_set = self._prefix_set = PrefixSet(self._blocks)
        number = prefix_set.lookup(addr)
        if number is None:
            return None
        return self._by_number[number]
