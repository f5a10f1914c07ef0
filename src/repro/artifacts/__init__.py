"""Content-addressed caching for expensive pipeline artifacts.

The §5 WAN measurement matrices are a pure function of (configuration,
code version), and serving them skips the campaign.  This package
caches them on disk under keys derived from exactly those inputs, so
repeat runs of the same configuration skip the campaign while any
change to a config knob or to the ``repro`` sources naturally misses
and rebuilds.  (The §2.1 dataset and the §3 capture are not cached:
``ExperimentContext`` builds them against its world on every run.)

Payloads are digest-verified on load; stale or corrupt files are deleted
and treated as misses, falling back to a rebuild.
"""

from repro.artifacts.keys import artifact_key, canonical, code_fingerprint
from repro.artifacts.store import ArtifactStats, ArtifactStore

__all__ = [
    "ArtifactStats",
    "ArtifactStore",
    "artifact_key",
    "canonical",
    "code_fingerprint",
]
