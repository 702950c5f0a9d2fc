"""The matching walker against the form it had before the last two chords
were placed inline.

previous_walk below is a copy of that walker, kept here so that a change
to diagrams._walk cannot move the reference with it: its level loop
placed every chord but the last, and only the chord forced by the two
points left was placed inline. Both walkers are run in lockstep and must
yield the same leaves in the same order, with the same states, after the
same sequence of hook calls, each seeing the same partial matching.
"""

from itertools import starmap, zip_longest
from operator import eq

import pytest

from chorddia import DomainError, make_standard_group, oracle
from chorddia.diagrams import _walk


def previous_walk(size, first, place, state):
    if size % 2:
        raise DomainError("matchings need an even number of points")
    partner = [-1] * size
    if first is not None:
        if not 1 <= first < size:
            raise DomainError("first_partner must be in [1, size)")
        partner[0] = first
        partner[first] = 0
        if place is not None:
            state = place(partner, 0, first, state)
            if state is None:
                return
    v = 0
    while v < size and partner[v] >= 0:
        v += 1
    if v >= size:
        yield partner, state
        return
    stack = []
    last_depth = (size if first is None else size - 2) // 2 - 2
    depth = 0
    w = v
    while True:
        w += 1
        while w < size and partner[w] >= 0:
            w += 1
        if w == size:
            partner[v] = -1
            if not stack:
                return
            v, w, state = stack.pop()
            depth -= 1
            partner[w] = -1
            continue
        partner[v] = w
        partner[w] = v
        child = state
        if place is not None:
            child = place(partner, v, w, state)
            if child is None:
                partner[w] = -1
                continue
        u = v + 1
        while u < size and partner[u] >= 0:
            u += 1
        if depth == last_depth:
            x = u + 1
            while partner[x] >= 0:
                x += 1
            partner[u] = x
            partner[x] = u
            if place is None:
                yield partner, child
            else:
                child = place(partner, u, x, child)
                if child is not None:
                    yield partner, child
            partner[u] = partner[x] = partner[w] = -1
            continue
        if u == size:
            yield partner, child
            partner[w] = -1
            continue
        stack.append((v, w, state))
        depth += 1
        v, w, state = u, u, child


def lockstep(size, first, place, state):
    """Walk with both walkers side by side; return (leaves, hook calls)."""
    calls = ([], [])

    def recorder(log):
        def hook(partner, v, w, s):
            log.append((v, w, tuple(partner), s))
            return place(partner, v, w, s)

        return hook if place is not None else None

    walks = (
        _walk(size, first, recorder(calls[0]), state),
        previous_walk(size, first, recorder(calls[1]), state),
    )
    leaves = hook_calls = 0
    if place is None:
        # no calls to record, so compare the leaves in C: 2 million at 16 points
        same = list(starmap(eq, zip_longest(*walks)))
        assert all(same)
        return len(same), 0
    for new, old in zip_longest(*walks):
        assert new is not None and old is not None, "one walk yields more leaves"
        assert new[0] == old[0] and new[1] == old[1]
        assert calls[0] == calls[1]
        leaves += 1
        hook_calls += len(calls[0])
        calls[0].clear()
        calls[1].clear()
    assert calls[0] == calls[1]  # the calls after the last leaf
    return leaves, hook_calls + len(calls[0])


def firsts(size):
    return [None, *range(1, size)]


def chords_so_far(partner, v, w, chords):
    return chords + ((v, w),)


def pseudo_random(partner, v, w, state):
    # a fixed prune that depends on the path: about one chord in two
    state = (state * 1103515245 + 97 * v + w + 12345) % 2**31
    return None if state & 256 else state


def reject_first_inline(partner, v, w, state):
    # the chord that leaves two points is the first of the last two
    if partner.count(-1) == 2 and (w - v) % 2:
        return None
    return state + 1


def reject_second_inline(partner, v, w, state):
    # the chord that leaves no point is the forced last one
    if -1 not in partner and (v + w) % 3 == 0:
        return None
    return state + 1


@pytest.mark.parametrize("size", range(0, 17, 2))
def test_without_hook(size):
    # the full walk at 16 points is 2,027,025 leaves, so it is walked once,
    # and each branch on its own only up to 14 points
    for first in firsts(size) if size <= 14 else [None]:
        for state in (None, "s") if size <= 14 else [None]:
            leaves, _ = lockstep(size, first, None, state)
            if first is None:
                assert leaves == max(1, _double_factorial(size - 1))


@pytest.mark.parametrize("size", range(0, 17, 2))
def test_pseudo_random_prune(size):
    total = 0
    for first in firsts(size):
        leaves, _ = lockstep(size, first, pseudo_random, 1)
        if first is not None:
            total += leaves
    if size:
        assert total == lockstep(size, None, pseudo_random, 1)[0]


@pytest.mark.parametrize(
    "place,state",
    [(chords_so_far, ()), (reject_first_inline, 0), (reject_second_inline, 0)],
    ids=["chords", "reject-first-inline", "reject-second-inline"],
)
@pytest.mark.parametrize("size", range(0, 13, 2))
def test_hooks(size, place, state):
    for first in firsts(size):
        lockstep(size, first, place, state)


@pytest.mark.parametrize("size", [4, 6, 8, 10])
def test_rejecting_hooks_reject_something(size):
    # otherwise the tests above would not reach the rejecting branches
    for place in (reject_first_inline, reject_second_inline):
        full = _double_factorial(size - 1)
        assert 0 < sum(1 for _ in _walk(size, None, place, 0)) < full


def test_orbit_walk_counts_at_d16():
    # the orderly hook on D_16: every chord placed, the inline two included
    group = make_standard_group("dihedral", 16)
    table = oracle._position0_table(16, oracle._element_arrays(group))
    assert lockstep(16, None, oracle._orderly_hook(table), []) == (65346, 410928)


def _double_factorial(m):
    out = 1
    for k in range(m, 0, -2):
        out *= k
    return out
