"""Property: DPOR's canonical key names exactly one symmetry orbit.

Configurations are merged on their canonical key, so the key must be a
canonical form under per-class thread renaming: every renaming of a
configuration gets its key, and two configurations share a key only when
one is a renaming of the other.  The reference is the brute force the
explorer used before signature sorting: the least renaming over every
per-class permutation.  The automorphism filter is checked the same way,
against swapping each pair of alternatives.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.explore.dpor import (
    _automorphic_reps,
    _canonicalize,
    _class_index,
    _signatures,
)

STATES = ("runnable", "running", "blocked", "finished")
REASONS = (None, "waiting for lock", "waiting on condition")


@st.composite
def symmetric_configs(draw):
    """``(symmetry classes, configuration)`` over small value domains, so
    that ties between threads of one class are common."""
    classes, tid = [], 0
    for size in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        classes.append(tuple(range(tid, tid + size)))
        tid += size
    tids = range(tid + draw(st.integers(0, 2)))
    # A class member may have no thread yet (spawned later in the run).
    present = [t for t in tids if draw(st.integers(0, 5))]
    threads = tuple(
        (t, draw(st.sampled_from(STATES)), draw(st.sampled_from(REASONS)),
         draw(st.integers(0, 2)))
        for t in present
    )

    def queue():
        order = draw(st.permutations(present))
        return tuple(order[: draw(st.integers(0, len(order)))])

    locks = tuple(
        (i, draw(st.sampled_from([None] + present)), queue())
        for i in range(draw(st.integers(0, 2)))
    )
    conds = tuple((i, queue()) for i in range(draw(st.integers(0, 2))))
    vars_proj = (("count", draw(st.integers(0, 1))),)
    return tuple(classes), (vars_proj, threads, locks, conds)


def _rename(config, mapping):
    vars_proj, threads, locks, conds = config
    r = lambda tid: mapping.get(tid, tid)  # noqa: E731
    return (
        vars_proj,
        tuple(sorted((r(t), s, br, fp) for t, s, br, fp in threads)),
        tuple((i, None if o is None else r(o), tuple(map(r, q))) for i, o, q in locks),
        tuple((i, tuple(map(r, q))) for i, q in conds),
    )


def _renamings(classes):
    for combo in itertools.product(*(itertools.permutations(c) for c in classes)):
        yield {
            old: new
            for cls, perm in zip(classes, combo)
            for old, new in zip(cls, perm)
        }


def _least_renaming(config, classes):
    """The brute-force canonical form.  ``repr`` orders keys totally (a
    None block reason or lock owner does not compare with a value)."""
    return min((_rename(config, m) for m in _renamings(classes)), key=repr)


def _key(config, classes):
    """The explorer's canonical key, signatures computed as the probe does."""
    return _canonicalize(config, classes, _signatures(config, _class_index(classes)))


def _draw_renaming(draw, classes):
    return {
        old: new
        for cls in classes
        for old, new in zip(cls, draw(st.permutations(cls)))
    }


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_key_is_invariant_under_renaming(data):
    classes, config = data.draw(symmetric_configs())
    renamed = _rename(config, _draw_renaming(data.draw, classes))
    assert _key(renamed, classes) == _key(config, classes)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(["renamed", "fingerprint", "queue", "vars"]))
def test_keys_agree_exactly_when_least_renamings_agree(data, change):
    classes, first = data.draw(symmetric_configs())
    vars_proj, threads, locks, conds = _rename(first, _draw_renaming(data.draw, classes))
    # Perturb the renamed copy; the perturbation may or may not leave it in
    # the orbit (reversing a one-thread queue, say, changes nothing).
    if change == "fingerprint" and threads:
        at = data.draw(st.integers(0, len(threads) - 1))
        t, s, br, fp = threads[at]
        threads = threads[:at] + ((t, s, br, fp + 1),) + threads[at + 1:]
    elif change == "queue" and locks + conds:
        at = data.draw(st.integers(0, len(locks) + len(conds) - 1))
        if at < len(locks):
            i, o, q = locks[at]
            locks = locks[:at] + ((i, o, q[::-1]),) + locks[at + 1:]
        else:
            at -= len(locks)
            i, q = conds[at]
            conds = conds[:at] + ((i, q[::-1]),) + conds[at + 1:]
    elif change == "vars":
        vars_proj = (("count", 2),)
    second = (vars_proj, threads, locks, conds)
    same_key = _key(first, classes) == _key(second, classes)
    same_orbit = _least_renaming(first, classes) == _least_renaming(second, classes)
    assert same_key == same_orbit


@settings(max_examples=300, deadline=None)
@given(symmetric_configs())
def test_automorphic_reps_match_pairwise_swaps(drawn):
    """An alternative is dropped exactly when swapping it with a kept
    alternative of its class fixes the configuration."""
    classes, config = drawn
    alternatives = [t for t, _s, _br, _fp in config[1]]
    expected = []
    for t in alternatives:
        if not any(
            any(t in cls and u in cls for cls in classes)
            and _rename(config, {t: u, u: t}) == _rename(config, {})
            for u in expected
        ):
            expected.append(t)
    class_of = _class_index(classes)
    signature = _signatures(config, class_of)
    assert _automorphic_reps(alternatives, class_of, signature) == expected
