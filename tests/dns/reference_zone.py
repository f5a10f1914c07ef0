"""The dict-of-lists zone, kept as an oracle for :class:`Zone`.

:class:`repro.dns.zone.Zone` stores one tuple of records per name.  This
is the storage it replaced — each name mapped to ``{rtype: [records]}``
— reduced to the accessors whose answers the tuple layout must keep:
``lookup`` (with its CNAME fallback), ``transfer``, ``names``,
``cname_links``, ``nameserver_names`` and ``has_name``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dns.records import RRType, ResourceRecord, normalize_name
from repro.dns.zone import DynamicName, TransferRefused


class ReferenceZone:
    """All authoritative data under one origin, one dict per name."""

    def __init__(self, origin: str, axfr_allowed: bool = False):
        self.origin = normalize_name(origin)
        self._suffix = "." + self.origin
        self.axfr_allowed = axfr_allowed
        self._static: Dict[str, Dict[RRType, List[ResourceRecord]]] = {}
        self._dynamic: Dict[str, DynamicName] = {}
        self._query_counts: Dict[str, int] = {}

    def _check_in_zone(self, name: str) -> str:
        if name != self.origin and not name.endswith(self._suffix):
            raise ValueError(f"{name} is not within zone {self.origin}")
        return name

    def add(self, record: ResourceRecord) -> None:
        name = self._check_in_zone(record.name)
        by_type = self._static.get(name)
        if by_type is None:
            self._static[name] = {record.rtype: [record]}
        else:
            records = by_type.get(record.rtype)
            if records is None:
                by_type[record.rtype] = [record]
            else:
                records.append(record)

    def add_dynamic(self, dynamic: DynamicName) -> None:
        name = self._check_in_zone(dynamic.name)
        self._dynamic[name] = dynamic

    def remove(self, name: str, rtype: Optional[RRType] = None) -> None:
        name = normalize_name(name)
        if rtype is None:
            self._static.pop(name, None)
            self._dynamic.pop(name, None)
            return
        by_type = self._static.get(name)
        if by_type is not None:
            by_type.pop(rtype, None)
            if not by_type:
                self._static.pop(name, None)

    def names(self) -> List[str]:
        return sorted(set(self._static) | set(self._dynamic))

    def cname_links(self) -> List[Tuple[str, str]]:
        return [
            (name, str(record.value))
            for name, by_type in self._static.items()
            for record in by_type.get(RRType.CNAME, ())
        ]

    def has_name(self, name: str) -> bool:
        name = normalize_name(name)
        return name in self._static or name in self._dynamic

    def lookup(
        self, name: str, rtype: RRType, vantage: object = None
    ) -> List[ResourceRecord]:
        name = normalize_name(name)
        if name in self._dynamic:
            index = self._query_counts.get(name, 0)
            self._query_counts[name] = index + 1
            return self._dynamic[name].answer(rtype, vantage, index)
        by_type = self._static.get(name)
        if not by_type:
            return []
        if rtype in by_type:
            return list(by_type[rtype])
        if rtype is not RRType.CNAME and RRType.CNAME in by_type:
            return list(by_type[RRType.CNAME])
        return []

    def transfer(self) -> List[ResourceRecord]:
        if not self.axfr_allowed:
            raise TransferRefused(self.origin)
        records: List[ResourceRecord] = []
        for by_type in self._static.values():
            for record_list in by_type.values():
                records.extend(record_list)
        for name, dynamic in self._dynamic.items():
            records.extend(dynamic.answer(RRType.A, None, 0))
        return records

    def nameserver_names(self) -> List[str]:
        apex = self._static.get(self.origin, {})
        return [str(r.value) for r in apex.get(RRType.NS, [])]
