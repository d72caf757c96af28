"""The module model behind the concurrency rules (RA701, RA703, RA707).

:mod:`~repro.analysis.concurrency.model` parses one module into the
facts the rules in :mod:`repro.analysis.rules_concurrency` read: mutable
module globals, lock attributes, the ``# repro: shared[lock=…]`` /
``# repro: borrows-lock[…]`` annotation tables, and a walker yielding
every write and call together with the locks lexically held there.
"""
