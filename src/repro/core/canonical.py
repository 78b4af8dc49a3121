"""Canonical JSON and stable content hashing.

The cache keys of the serve layer (and the ``spec_hash`` stamped into
result-store records) must be *stable*: the same
logical spec must hash to the same digest regardless of dict insertion
order, whitespace, which Python version serialized it, or which
process computed the hash. :func:`canonical_json` pins every degree of
freedom JSON leaves open:

* object keys are sorted;
* separators carry no whitespace;
* non-ASCII characters are escaped (``ensure_ascii``), so the byte
  encoding is locale-independent;
* floats serialize via ``repr`` (shortest round-trip form, identical
  across supported Python versions).

:func:`stable_hash` is then simply the SHA-256 hex digest of those
bytes. Sibling of :func:`repro.core.rng.derive_seed` (stable *seeds*
from label paths); this module derives stable *identities* from JSON
documents.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["canonical_json", "stable_hash"]


def canonical_json(document: object) -> str:
    """Serialize a JSON-safe document to its one canonical form.

    ``allow_nan=False`` because NaN/Infinity are not JSON and would
    make equal-looking documents unequal across parsers; callers encode
    non-finite values explicitly (``ExperimentResult.to_record`` uses
    the string ``"inf"``).
    """
    return json.dumps(
        document,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def stable_hash(document: object) -> str:
    """SHA-256 hex digest of a document's canonical JSON.

    This is the content-addressing primitive behind
    ``ScenarioSpec.spec_hash()`` / ``CampaignSpec.spec_hash()`` /
    ``Shard.spec_hash()`` and therefore behind every dedup decision the
    serve layer makes. Two documents hash equal iff they are the same
    JSON value.
    """
    return hashlib.sha256(canonical_json(document).encode("ascii")).hexdigest()
