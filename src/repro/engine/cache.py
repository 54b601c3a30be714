"""The engine's plan-cache keys, and the segmented LRU that holds its
plans.

The compiled artifacts of bounded evaluation — the EBChk verdict and the
QPlan/sQPlan plan — depend on ``(Q, A, semantics)`` only, never on the
graph. A :class:`~repro.engine.engine.QueryEngine` therefore caches them
per session in a :class:`PlanCache` keyed on the pattern's canonical
key (:func:`~repro.pattern.canonical.pattern_fingerprint`) and the
semantics, so a repeated query (even one rebuilt from scratch with
different node ids) pays planning once. The cache admits a new plan on
probation and protects it from its first hit on, so the plans of
shapes seen once (a Zipf tail) never evict the hot ones.
"""

from __future__ import annotations

from repro.pattern.canonical import pattern_fingerprint
from repro.pattern.pattern import Pattern
from repro.util.lru import PlanCache

__all__ = ["PlanCache", "pattern_fingerprint", "plan_keys"]


class _HashedKey(tuple):
    """A cache key tuple that hashes once.

    A plain tuple re-hashes its nested items on every lookup (twice per
    cache hit: the lookup and ``move_to_end``); this one hashes to the
    same value, computed at construction, and compares equal to the
    plain tuple of its items. It pickles as that plain tuple, since
    string hashes differ per process.
    """

    def __new__(cls, items: tuple):
        key = tuple.__new__(cls, items)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return tuple, (tuple(self),)


def plan_keys(pattern: Pattern, key: tuple, order: tuple[int, ...],
              semantics: str) -> tuple[tuple, tuple]:
    """The engine's two cache keys for ``pattern`` (whose fingerprint is
    ``(key, order)``) under ``semantics``: the plan-cache key
    ``(key, semantics)`` and the session memo key ``(plan key, order)``.
    Memoized on the pattern beside its fingerprint, one pair per
    semantics, in a dict that :meth:`Pattern.copy` shares, so the copies
    the DSL memo hands out for one text build them once; a mutation
    gives the mutated pattern none."""
    keys = pattern._plan_keys
    if keys is None:
        keys = pattern._plan_keys = {}
    pair = keys.get(semantics)
    if pair is None:
        plan_key = _HashedKey((key, semantics))
        pair = keys[semantics] = (plan_key, _HashedKey((plan_key, order)))
    return pair
