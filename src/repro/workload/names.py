"""Deterministic generation of plausible domain and subdomain names."""

from __future__ import annotations

import random
from typing import List, Set

from repro.dns.enumeration import default_wordlist
from repro.sampling import WeightedChooser

_SYLLABLES = (
    "ba", "bel", "bo", "cam", "car", "cen", "cor", "da", "del", "dex",
    "do", "el", "fa", "fin", "flex", "fo", "gen", "gra", "hub", "in",
    "jo", "ka", "ki", "lan", "len", "li", "lo", "lux", "ma", "mer",
    "mi", "mo", "na", "neo", "net", "no", "nu", "om", "pa", "pex",
    "pi", "plex", "po", "qua", "ra", "ren", "ri", "ro", "sa", "sen",
    "si", "so", "sta", "sun", "ta", "tek", "ti", "to", "tra", "tri",
    "u", "va", "ven", "vi", "vo", "wa", "web", "wi", "xo", "ya",
    "yo", "za", "zen", "zi", "zo",
)

#: Substrings that must never appear in generated names (syllable
#: concatenation can land on unfortunate words).
_BLOCKED_SUBSTRINGS = ("nazi", "sex", "porn", "rape", "hitler", "slut")

_TLDS = (
    (".com", 0.52), (".net", 0.10), (".org", 0.08), (".ru", 0.06),
    (".de", 0.05), (".co.uk", 0.04), (".jp", 0.04), (".cn", 0.03),
    (".br", 0.03), (".fr", 0.02), (".in", 0.02), (".io", 0.01),
)


class DomainNameFactory:
    """Generates unique registrable domain names."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._used: Set[str] = set()
        self._tld_names = [t for t, _ in _TLDS]
        self._tld_chooser = WeightedChooser(
            self._tld_names, [w for _, w in _TLDS]
        )
        self._counter = 0

    def reserve(self, name: str) -> None:
        """Mark an externally supplied name (a notable tenant) as used."""
        self._used.add(name.lower())

    def fresh(self) -> str:
        """A new unique domain name."""
        for _ in range(40):
            n_syllables = self.rng.choice((2, 2, 3, 3, 3, 4))
            stem = "".join(
                self.rng.choice(_SYLLABLES) for _ in range(n_syllables)
            )
            tld = self._tld_chooser.choose(self.rng)
            name = stem + tld
            if any(bad in name for bad in _BLOCKED_SUBSTRINGS):
                continue
            if name not in self._used:
                self._used.add(name)
                return name
        # Collision storm (tiny name space exhausted): fall back to a
        # counter suffix, still unique and deterministic.
        self._counter += 1
        name = f"site{self._counter}{self.rng.choice(self._tld_names)}"
        self._used.add(name)
        return name


class SubdomainLabelFactory:
    """Generates subdomain labels with the paper's observed skew.

    ``www`` is by far the most common prefix (3.3% of cloud-using
    subdomains), followed by m, ftp, cdn, mail, staging, blog, support,
    test, dev.  Most labels come from the brute-force wordlist (so the
    enumerator can find them); a configurable fraction are random
    strings that wordlist brute forcing misses — making discovered
    counts a lower bound, as in the paper.
    """

    #: Head labels, in the paper's reported popularity order.
    HEAD_LABELS = (
        "www", "m", "ftp", "cdn", "mail", "staging",
        "blog", "support", "test", "dev",
    )

    def __init__(self, rng: random.Random, hidden_fraction: float = 0.10):
        self.rng = rng
        self.hidden_fraction = hidden_fraction
        self._wordlist = default_wordlist()

    def _random_label(self) -> str:
        length = self.rng.randint(5, 10)
        return "x" + "".join(
            self.rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
            for _ in range(length)
        )

    def labels_for_domain(self, count: int) -> List[str]:
        """``count`` distinct labels for one domain.

        The first label is ``www`` with high probability; subsequent
        labels are drawn from the head list, then the wordlist, with a
        ``hidden_fraction`` chance of an unguessable label.
        """
        if count <= 0:
            return []
        labels: List[str] = []
        used: Set[str] = set()

        def push(label: str) -> None:
            if label not in used:
                used.add(label)
                labels.append(label)

        if self.rng.random() < 0.85:
            push("www")
        while len(labels) < count:
            roll = self.rng.random()
            if roll < self.hidden_fraction:
                push(self._random_label())
            elif roll < self.hidden_fraction + 0.35:
                push(self.rng.choice(self.HEAD_LABELS))
            else:
                push(self.rng.choice(self._wordlist))
            if len(used) > count + 60:
                # The wordlist is finite; synthesize the remainder.
                while len(labels) < count:
                    push(self._random_label())
        return labels[:count]
