"""Fixture: RA101's clean counterexample — index code hashing through
repro.core.hashing, and a method merely *named* hash.

Never imported; only scanned by the lint engine in tests.
"""

from repro.core.hashing import hash_key


def bucket_of(key, capacity):
    return hash_key(key) % capacity


def digest(hasher, payload):
    return hasher.hash(payload)
