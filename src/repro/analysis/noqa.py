"""``# repro: noqa[RULE]`` suppression comments.

A finding is suppressed when the *physical line it is reported on* carries
a suppression comment naming its rule — or a blanket ``# repro: noqa``
with no rule list.  Rule lists are comma-separated and case-insensitive:

.. code-block:: python

    value = hash(key)        # repro: noqa[RA101] -- golden-file fixture
    probe = random.random()  # repro: noqa[RA102]
    legacy_call()            # repro: noqa

Suppressions are deliberately line-scoped (no file- or block-scoped
form): every silenced finding stays visible next to the code it excuses,
which is what a reviewer audits.
"""

from __future__ import annotations

import re

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\[(?P<rules>[A-Za-z0-9_,\s]*)\])?",
)

#: sentinel for a blanket ``# repro: noqa`` (suppresses every rule)
BLANKET = frozenset({"*"})


def line_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule codes suppressed there.

    A blanket suppression maps to :data:`BLANKET`.  Lines without a
    suppression comment are absent from the mapping.
    """
    table: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "#" not in text:  # cheap pre-filter before the regex
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = BLANKET
        else:
            codes = frozenset(
                code.strip().upper() for code in rules.split(",") if code.strip()
            )
            table[lineno] = codes or BLANKET
    return table


def is_suppressed(table: dict[int, frozenset[str]], line: int, rule: str) -> bool:
    """Is ``rule`` suppressed on ``line`` according to ``table``?"""
    codes = table.get(line)
    if codes is None:
        return False
    return codes is BLANKET or "*" in codes or rule.upper() in codes
