import copy
import pickle
import sys

import pytest
from hypothesis import HealthCheck, given, settings

from alphaseq import adjacency, core
from alphaseq.adjacency import (
    StarFactorization,
    _first_lexical_rewrite,
    _predecessor_dn,
    _predecessor_parts,
    _predecessor_tail,
    _require_ln,
    _star_factorize,
    _successor_dn,
    _successor_parts,
    predecessor_dn,
    predecessor_ln,
    predecessor_tail,
    star_factorize,
    successor_dn,
    successor_is_direct,
    successor_ln,
)
from alphaseq.cells import lexical_predecessor_candidate, lexical_successor_candidate
from alphaseq.core import (
    LESS,
    ZERO,
    _head_table,
    compare,
    degree,
    extend_even,
    extend_odd,
    format_sequence,
    harmonic,
    is_fundamental,
    is_lexical,
    is_member,
    least_element,
    meet,
    power,
    require_member,
    star,
    two_adic_split,
)
from alphaseq.enumeration import enumerate_ln, enumerate_ln_descending
from alphaseq.errors import InvalidN, Maximal, Minimal, NoCandidate, NoDecomposition, NotInSet
from alphaseq.oracle import oracle_ln

from conftest import head_repeating_members, sequences_up_to_degree


def test_successor_ln_examples():
    assert successor_ln((3, 2, 3, 2), 11) == (3, 1, 1, 3, 2)
    assert successor_ln((3, 1, 2, 1), 8) == (4, 3)
    assert successor_ln((2, 1, 1, 2, 1), 8) == (2, 1, 1, 1, 1, 1)


def test_successor_ln_errors():
    with pytest.raises(Maximal):
        successor_ln((6,), 7)
    with pytest.raises(NotInSet):
        successor_ln((2, 3), 6)  # right degree, not lexical
    with pytest.raises(NotInSet):
        successor_ln((4, 3), 9)


def test_star_factorize_examples():
    fac = star_factorize((4, 3), 8)
    assert fac == StarFactorization(g=(3,), m=4, lam=(1,), d=2)
    assert star_factorize((4, 1, 2), 8) is None
    trivial = star_factorize((2, 1, 1, 2, 1), 8)
    assert trivial is not None and trivial.trivial
    assert (trivial.m, trivial.d) == (1, 8)
    with pytest.raises(NotInSet):
        star_factorize((4, 3), 12)


def test_star_factorization_reconstructs():
    for n in range(2, 17):
        for a in oracle_ln(n):
            fac = star_factorize(a, n)
            if fac is None or fac.trivial:
                continue
            assert is_fundamental(fac.g) and is_lexical(fac.g)
            assert 1 + degree(fac.g) == fac.m
            assert fac.m * fac.d == n and fac.d >= 2
            assert star(fac.g, fac.lam) == a


def _invert_extend_odd(p):
    """Preimage of ``p`` under extend_odd, or None (images have odd length)."""
    if not p or len(p) % 2 == 0:
        return None
    if p[-1] == 1:
        return p[:-1]
    return p[:-1] + (p[-1] - 1,)


def _star_factorize_unpruned(a, n):
    """star_factorize without the prefix-degree precheck: every odd prefix is tried."""
    best = None
    for plen in range(1, len(a) + 1, 2):
        g = _invert_extend_odd(a[:plen])
        if not g or not is_lexical(g) or not is_fundamental(g):
            continue
        m = 1 + degree(g)
        if m >= n or n % m != 0:
            continue
        lam = least_element(n // m)
        if star(g, lam) == a and (best is None or (m, len(g)) > (best.m, len(best.g))):
            best = StarFactorization(g, m, lam, n // m)
    if best is None and n >= 2 and a == least_element(n):
        return StarFactorization(ZERO, 1, a, n)
    return best


def test_star_factorize_matches_the_unpruned_loop():
    for n in range(1, 19):
        for a in oracle_ln(n):
            assert star_factorize(a, n) == _star_factorize_unpruned(a, n), (n, a)
    # 24 has eight divisors, so the running prefix degree meets many proper classes;
    # only members whose first cell recurs have a suffix candidate at all
    repeating = [a for a in enumerate_ln(24) if a.count(a[0]) > 1]
    assert len(repeating) > 10000
    for a in repeating:
        assert star_factorize(a, 24) == _star_factorize_unpruned(a, 24), a


def test_lexical_sequence_of_another_class_is_not_a_member():
    # the walks over L_7 and L_8 match the oracle, and a member of L_7, though
    # lexical, has the wrong degree for L_8: every step entry rejects it
    for n in (7, 8):
        assert list(enumerate_ln(n)) == oracle_ln(n)
        assert list(enumerate_ln_descending(n)) == oracle_ln(n)[::-1]
    a = (3, 1, 2)
    assert is_lexical(a)
    for step in (successor_ln, predecessor_ln, star_factorize, successor_dn):
        with pytest.raises(NotInSet):
            step(a, 8)


def test_predecessor_tail_examples():
    assert predecessor_tail((3,), 4) == (2, 1)
    assert predecessor_tail((2,), 3) == (1, 1)
    with pytest.raises(NoDecomposition):
        predecessor_tail(ZERO, 1)


def _predecessor_tail_two_forms(g, m):
    """The companion tail found by its own prefix search: either
    g = star(tau, least_element(r)) for a lexical tau and an odd r >= 3, with
    tail star(tau, (1,)*(r-1)), or the adjacent predecessor of g inside L_m."""
    candidates = [ZERO]
    for plen in range(1, len(g) + 1, 2):
        tau = _invert_extend_odd(g[:plen])
        if tau is not None:
            candidates.append(tau)
    for tau in candidates:
        if not is_lexical(tau):
            continue
        m1 = 1 + degree(tau)
        if m % m1 != 0:
            continue
        r = m // m1
        if r < 3 or r % 2 == 0:
            continue
        if star(tau, least_element(r)) == g:
            return power(extend_odd(tau), r - 1) + tau
    try:
        cand, _ = lexical_predecessor_candidate(g)
    except NoCandidate:
        raise NoDecomposition(f"{g} has no tail") from None
    return cand


def test_predecessor_tail_matches_the_two_form_search():
    # a walk in L_n meets predecessor_tail(g, m) only for m a proper divisor of
    # n, so m <= 16 covers every g that a walk with n <= 32 can reach
    swept = 0
    for m in range(1, 17):
        for g in oracle_ln(m):
            if not is_fundamental(g):
                continue
            try:
                expected = _predecessor_tail_two_forms(g, m)
            except NoDecomposition:
                with pytest.raises(NoDecomposition):
                    predecessor_tail(g, m)
            else:
                assert predecessor_tail(g, m) == expected, (m, g)
            swept += 1
    assert swept == 4381


def test_companion_tail_searches_only_after_a_rejected_probe(step_events):
    # the tail runs the reverse step's scan: its star search waits for the first probe
    # whose test fails, so a tail whose first tested probe is lexical searches not at
    # all. The probes before the public scan's answer fail, and all are tested but a
    # merge that lifts its cell past g[0]. Besides the fundamental g a walk meets, the
    # sweep takes harmonics and least elements, whose factorization has an even d
    swept = searched = 0
    for m in range(3, 17):
        for g in oracle_ln(m):
            start = len(g) - 1 + len(g) % 2
            answer = _result_or_none(lexical_predecessor_candidate, g)
            failed = range(start, 0 if answer is None else answer[1], -2)
            rejected = [i for i in failed if not (g[i - 1] == 1 and i > 2 and g[i - 2] >= g[0])]
            step_events.clear()
            try:
                expected = _predecessor_tail_two_forms(g, m)
            except NoDecomposition:
                with pytest.raises(NoDecomposition):
                    _predecessor_tail(g, m, _head_table(g))
            else:
                assert _predecessor_tail(g, m, _head_table(g)) == expected, (m, g)
            searches = step_events.count("star")
            assert searches == bool(rejected), (m, g, step_events)
            swept += 1
            searched += searches
    assert 0 < searched < swept


def test_predecessor_tail_prefers_the_rightmost_rewrite():
    # regression: (2,1,2,1) in class 7 decomposes at two positive cells;
    # only the rightmost one gives the true companion (2,1,1,1,1)
    assert predecessor_tail((2, 1, 2, 1), 7) == (2, 1, 1, 1, 1)


def test_predecessor_ln_examples():
    assert predecessor_ln((4, 3), 8) == (3, 1, 2, 1)
    assert predecessor_ln((4, 2, 1), 8) == (4, 3)
    with pytest.raises(Minimal):
        predecessor_ln((2, 1, 1, 2, 1), 8)


@pytest.mark.parametrize("a, n, error, message", [
    ((4, 3), 12, NotInSet, "4,3 is not a member of L_12"),
    ((2, 3), 6, NotInSet, "2,3 is not a member of L_6"),
    ((4, 3), 0, InvalidN, "n must be >= 1, got 0"),
    ((4, 3), -1, InvalidN, "n must be >= 1, got -1"),
    ((2, 1, 1, 2, 1), 8, Minimal, "2,1,1,2,1 is the minimal element of L_8"),
    ((), 1, Minimal, "0 is the minimal element of L_1"),
])
def test_reverse_step_errors(a, n, error, message):
    # the reverse step validates before the Minimal check, which
    # star_factorize and predecessor_tail do not make themselves
    steps = [predecessor_ln, predecessor_dn]
    if error is not Minimal:
        steps += [star_factorize, predecessor_tail]
    for step in steps:
        with pytest.raises(error) as exc:
            step(a, n)
        assert str(exc.value) == message


@pytest.mark.parametrize("a, n, error, message", [
    ((2, 3), 6, NotInSet, "2,3 is not a member of L_6"),
    ((4, 3), 12, NotInSet, "4,3 is not a member of L_12"),
    ((4, 3), 0, InvalidN, "n must be >= 1, got 0"),
    ((4, 3), -1, InvalidN, "n must be >= 1, got -1"),
    ((6,), 7, Maximal, "6 is the maximal element of L_7"),
    ((), 1, Maximal, "0 is the maximal element of L_1"),
])
def test_forward_step_errors(a, n, error, message):
    # the forward step validates before the Maximal check
    for step in (successor_ln, successor_dn, successor_is_direct):
        with pytest.raises(error) as exc:
            step(a, n)
        assert str(exc.value) == message


def test_least_element_factorizes_only_trivially():
    # star_factorize marks the least element of L_n with the trivial factorization
    for n in range(2, 201):
        fac = star_factorize(least_element(n), n)
        assert fac is not None and fac.trivial, n


def test_reverse_step_memory_does_not_grow_with_n(monkeypatch):
    # least_element(n) has about n cells; a reverse step on a short member
    # must not build it
    def small_only(n):
        assert n < 10**6, f"least_element({n}) built"
        return least_element(n)

    monkeypatch.setattr("alphaseq.adjacency.least_element", small_only)
    n = 10**12 + 1
    assert predecessor_ln((n - 1,), n) == (n - 2, 1)
    assert predecessor_dn((n - 1,), n) == [(n - 2, 1)]


def test_predecessor_dn_inverts_successor_dn():
    for n in range(1, 17):
        for a in oracle_ln(n)[:-1]:
            burst = successor_dn(a, n)
            assert predecessor_dn(burst[-1], n) == burst[-2::-1] + [a], (n, a)


def test_successor_dn_examples():
    assert successor_dn((3, 1, 2, 1), 8) == [(3,), (4, 3)]
    assert successor_dn((4, 3), 8) == [(4, 2, 1)]
    assert successor_dn((2, 1, 1, 2, 1), 8) == [(2, 1, 1, 1, 1, 1)]
    with pytest.raises(Maximal):
        successor_dn((7,), 8)


def test_successor_matches_oracle_adjacency():
    for n in range(1, 17):
        ordered = oracle_ln(n)
        for a, b in zip(ordered, ordered[1:]):
            assert successor_ln(a, n) == b, (n, a)


def test_round_trip():
    for n in range(1, 17):
        ordered = oracle_ln(n)
        for a, b in zip(ordered, ordered[1:]):
            assert predecessor_ln(successor_ln(a, n), n) == a
            assert successor_ln(predecessor_ln(b, n), n) == b


@given(head_repeating_members())
def test_round_trip_where_the_first_cell_recurs(member):
    a, n = member
    try:
        assert predecessor_ln(successor_ln(a, n), n) == a
    except Maximal:
        pass
    try:
        assert successor_ln(predecessor_ln(a, n), n) == a
    except Minimal:
        pass


def test_round_trip_at_least_elements():
    # least_element(3 * 2**k) repeats its first cell n/3 times, the worst case of the
    # forward scan; n = 12288 takes about a second. L_3 = {(2,)} has no step.
    for k in range(1, 13):
        n = 3 * 2**k
        a = least_element(n)
        b = successor_ln(a, n)
        assert predecessor_ln(b, n) == a
        assert successor_ln(predecessor_ln(b, n), n) == b
        with pytest.raises(Minimal):
            predecessor_ln(a, n)


def test_meet_sandwich():
    # between a sequence and its rewrite candidate sits their meet, lexical,
    # strictly inside the order gap; the step reads f off the rewritten cell,
    # so it is checked against meet itself and against the step's factorization
    for n in range(2, 17):
        for a in oracle_ln(n)[:-1]:
            cand, _ = lexical_successor_candidate(a)
            f = meet(a, cand)
            assert compare(a, f) == LESS
            assert compare(f, cand) == LESS
            assert is_lexical(f)
            succ, fac = _successor_parts(a, n)
            if fac is None:
                assert succ == cand, (n, a)
                assert n % (1 + degree(f)) != 0
            else:
                assert fac.g == f, (n, a)
                assert fac.m == 1 + degree(f)
                assert succ == star(f, fac.lam)


def test_doubled_class_surface_is_lexical():
    # for every degree-halving factorization, the odd closure of g glued to
    # the companion tail lands back in the doubled class
    seen = 0
    for n in range(2, 17, 2):
        for a in oracle_ln(n):
            fac = star_factorize(a, n)
            if fac is None or fac.trivial or fac.d != 2:
                continue
            glued = extend_odd(fac.g) + predecessor_tail(fac.g, fac.m)
            assert is_lexical(glued)
            assert 1 + degree(glued) == n
            seen += 1
    assert seen > 0


def test_star_branch_predecessor_equals_oracle():
    for n in range(2, 17):
        ordered = oracle_ln(n)
        for i, a in enumerate(ordered[1:], start=1):
            fac = star_factorize(a, n)
            if fac is None or fac.trivial:
                continue
            formula = power(extend_even(fac.g), fac.d - 1) + predecessor_tail(fac.g, fac.m)
            assert formula == ordered[i - 1], (n, a)


def test_prime_steps_are_always_direct():
    for p in (2, 3, 5, 7, 11, 13):
        for a in oracle_ln(p)[:-1]:
            assert successor_is_direct(a, p)


def test_composite_steps_are_not_always_direct():
    assert not successor_is_direct((3, 1, 2, 1), 8)
    assert not successor_is_direct((2, 1, 1, 1), 6)


def test_members_without_a_lexical_rewrite_are_exactly_the_star_products():
    # the law the reverse step's order rests on: a member of L_n has no lexical
    # positive-cell rewrite exactly when star_factorize factors it, as a star
    # product or as the least element (trivially)
    factored = 0
    for n in range(2, 21):
        for a in enumerate_ln(n):
            try:
                lexical_predecessor_candidate(a)
                rewrites = True
            except NoCandidate:
                rewrites = False
            assert rewrites == (star_factorize(a, n) is None), (n, a)
            factored += not rewrites
    assert factored > 100


def _members_with_known_answers():
    """Every member of L_n for n <= 18, the least elements of L_(3 * 2**k) for k <= 8,
    and every resonant product star(f, least_element(d)) with m * d <= 24: the last two
    are where a[0] recurs and the scan must test its probes against the suffixes at the
    heads, over comparison windows up to hundreds of cells long."""
    for n in range(1, 19):
        yield from oracle_ln(n)
    for k in range(9):
        yield least_element(3 * 2**k)
    for m in range(2, 13):
        for f in filter(is_fundamental, oracle_ln(m)):
            for d in range(2, 24 // m + 1):
                a = star(f, least_element(d))
                assert is_member(a, "L", m * d), (f, d)
                yield a


def _result_or_none(scan, a):
    """What a public candidate scan returns, or None where it raises NoCandidate."""
    try:
        return scan(a)
    except NoCandidate:
        return None


def test_member_scan_matches_the_candidate_scans():
    # the L_n and D_n steps scan with _first_lexical_rewrite, which assumes a member;
    # on members it returns what the public scans return, and None where they raise.
    # The step bodies unpack its result unchecked, so it must find a rewrite up from
    # every member of length >= 2, and down from every member of L_n, n >= 2, that
    # _star_factorize does not factor (the zero sequence is L_1's only member). Each
    # scan runs with no table, as in the walks, and with the head table of a, as
    # the public entries pass it
    seen = 0
    for a in _members_with_known_answers():
        for table in (None, _head_table(a)) if a else (None,):
            succ = _first_lexical_rewrite(a, len(a) - len(a) % 2, 0, table)
            assert succ == _result_or_none(lexical_successor_candidate, a), a
            assert succ is not None or len(a) < 2, a
            pred = _first_lexical_rewrite(a, len(a) - 1 + len(a) % 2, 0, table)
            assert pred == _result_or_none(lexical_predecessor_candidate, a), a
            assert pred is not None or not a or _star_factorize(a, degree(a) + 1, _head_table(a)) is not None, a
        seen += len(a) > 1 and a.count(a[0]) > 1
    assert seen > 1000


def test_public_check_agrees_with_is_member():
    # the seven public entries validate with one check, which returns the head table
    # of a member of L_n for the step to read and raises what require_member raises
    for a in sequences_up_to_degree(12):
        for n in range(1, 15):
            if is_member(a, "L", n):
                assert _require_ln(a, n) == (_head_table(a) if a else []), (a, n)
            else:
                with pytest.raises(NotInSet) as exc:
                    _require_ln(a, n)
                assert str(exc.value) == f"{format_sequence(a)} is not a member of L_{n}"
    # cells 0 and -1 are no cells of a composition, though the degree and a[0] fit
    for a in ((2, 0), (3, 0, 1), (2, -1, 2), (4, 1, -1, 1)):
        assert not is_member(a, "L", degree(a) + 1)
        with pytest.raises(NotInSet):
            _require_ln(a, degree(a) + 1)
    for n in (0, -3):
        for a in ((4, 2, 1), ZERO):
            with pytest.raises(InvalidN):
                _require_ln(a, n)


CHECKED_STEPS = (successor_ln, predecessor_ln, successor_dn, predecessor_dn, star_factorize, predecessor_tail)


def test_a_rejection_formats_nothing_until_its_message_is_read(monkeypatch):
    # a caller that catches NotInSet pays for no printing: the message is built from
    # the kept sequence and set when read, with core's format_sequence, as the same text
    calls = []

    def counted(a):
        calls.append(a)
        return format_sequence(a)

    for module in (core, adjacency):
        monkeypatch.setattr(module, "format_sequence", counted)
    # the wrong degree, a later cell above the first, a suffix above the sequence
    rejected = [(step, (a, n), f"{text} is not a member of L_{n}")
                for step in CHECKED_STEPS
                for a, n, text in (((4, 3), 12, "4,3"), ((2, 3), 6, "2,3"), ((2, 1, 2), 6, "2,1,2"))]
    rejected += [(require_member, ((2, 1), kind, n), f"2,1 is not a member of {kind}_{n}")
                 for kind, n in (("A", 4), ("L", 6), ("D", 6))]
    for step, args, message in rejected:
        calls.clear()
        with pytest.raises(NotInSet) as exc:
            step(*args)
        assert calls == [], (step.__name__, args)
        assert str(exc.value) == message and calls == [args[0]], (step.__name__, args)
        for twin in (pickle.loads(pickle.dumps(exc.value)), copy.copy(exc.value), copy.deepcopy(exc.value)):
            assert type(twin) is NotInSet and str(twin) == message


def test_a_cell_too_long_to_print_is_still_not_a_member():
    # the message names the set and the digit limit in place of what cannot be printed
    a, limit = (10**5000, 1), sys.get_int_max_str_digits()
    cell = f"a sequence with a cell of more than {limit} digits is not a member of "
    for step in CHECKED_STEPS:
        with pytest.raises(NotInSet) as exc:
            step(a, 3)
        assert str(exc.value) == cell + "L_3", step.__name__
    for kind in ("A", "L", "D"):
        with pytest.raises(NotInSet) as exc:
            require_member(a, kind, 3)
        assert str(exc.value) == cell + f"{kind}_3"
    with pytest.raises(NotInSet) as exc:
        successor_ln((4, 3), 10**5000)
    assert str(exc.value) == f"4,3 is not a member of L_n, an n of more than {limit} digits"


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head_repeating_members())
def test_public_step_tests_each_head_once(step_events, member):
    # the input check builds the head table of a and the step reads it, so a public
    # step builds one table and makes no more suffix tests or probe tests than the
    # walks' body, which takes no table and builds one at the first probe that needs it
    a, n = member
    for public, body in (
        (successor_ln, _successor_parts),
        (predecessor_ln, _predecessor_parts),
        (successor_dn, _successor_dn),
    ):
        counts = []
        for step in (public, body):
            step_events.clear()
            try:
                step(a, n)
            except (Maximal, Minimal):
                pass
            counts.append(tuple(map(step_events.count, ("table", "test", "probe"))))
        (tables, *work), (_, *body_work) = counts
        assert tables == 1, (public.__name__, a, counts)
        assert all(w <= b for w, b in zip(work, body_work)), (public.__name__, a, counts)


def test_reverse_scan_given_the_class_never_ends_empty():
    # every member but the least has a[0] >= 2 and so tests its probe at cell 1: a
    # scan that passes every probe has searched, and found the star factorization
    for n in range(2, 19):
        least = least_element(n)
        for a in enumerate_ln(n):
            if a != least:
                found = _first_lexical_rewrite(a, len(a) - 1 + len(a) % 2, n)
                assert found is not None, f"{format_sequence(a)} in L_{n}"


class _NoWrap(tuple):
    """A sequence whose negative indices raise, where a tuple's read from the end."""

    def __getitem__(self, key):
        if isinstance(key, int) and key < 0:
            raise IndexError(f"cell {key} of {tuple(self)}")
        return super().__getitem__(key)


def test_scan_reads_no_cell_left_of_the_first():
    # the scan stops before cell 1 of (1,), which has no left neighbour to merge
    # with: a scan that went on would read a[-1], its last cell, and be right only
    # because the merge (2,) lifts its cell past a[0] and is skipped
    for n in range(1, 15):
        for a in oracle_ln(n):
            for start in (len(a) - len(a) % 2, len(a) - 1 + len(a) % 2):
                assert _first_lexical_rewrite(_NoWrap(a), start) == _first_lexical_rewrite(a, start), a


def test_halted_scan_resumes_where_it_stopped(monkeypatch):
    # given n, the scan runs the star search once, at the first probe whose test
    # fails: a factorization is returned at once, with the head table of a that the
    # search read, and None lets the scan end where the plain scan ends. Every probe
    # before the plain scan's answer fails; all are tested but a merge that lifts its
    # cell past a[0]
    calls = []

    def search(a, n, table):
        calls.append((a, n))
        return _star_factorize(a, n, table)

    monkeypatch.setattr(adjacency, "_star_factorize", search)
    halted = factored = 0
    for a in _members_with_known_answers():
        n = degree(a) + 1
        fac = _star_factorize(a, n, _head_table(a) if a else [])
        negative = (len(a) - len(a) % 2, 1)
        positive = (len(a) - 1 + len(a) % 2, 1 if a[:1] == (1,) else 0)
        for start, stop in (negative, positive):
            whole = _first_lexical_rewrite(a, start)
            failed = range(start, stop if whole is None else whole[1], -2)
            lifted = [i for i in failed if a[i - 1] == 1 and i > 2 and a[i - 2] >= a[0]]
            tested = len(failed) > len(lifted)
            calls.clear()
            found = _first_lexical_rewrite(a, start, n)
            assert calls == ([(a, n)] if tested else []), a
            assert found == ((fac, _head_table(a)) if tested and fac is not None else whole), a
            halted += tested
            factored += tested and fac is not None
    assert halted > 1000 and factored > 500


def _star_first_predecessor(a, n):
    """The reverse step with the star search first, from the public pieces alone:
    the L_n predecessor and the D_n burst, or None at the least element."""
    fac = star_factorize(a, n)
    if n == 1 or (fac is not None and fac.trivial):
        return None
    if fac is None:
        pred = lexical_predecessor_candidate(a)[0]
        return pred, [pred]
    pred = power(extend_even(fac.g), fac.d - 1) + predecessor_tail(fac.g, fac.m)
    # the harmonics of g below a, as successor_dn's docstring lists them, the highest first
    k, t = two_adic_split(fac.d)
    return pred, [harmonic(j, fac.g) for j in range(k + (t > 0))][::-1] + [pred]


def _assert_star_first(a, n):
    want = _star_first_predecessor(a, n)
    if want is None:
        for step in (predecessor_ln, predecessor_dn):
            with pytest.raises(Minimal):
                step(a, n)
    else:
        assert (predecessor_ln(a, n), predecessor_dn(a, n)) == want, (n, a)


def test_reverse_step_matches_the_star_first_reference():
    for n in range(1, 19):
        for a in enumerate_ln(n):
            _assert_star_first(a, n)


@given(head_repeating_members())
def test_reverse_step_matches_the_star_first_reference_where_the_first_cell_recurs(member):
    _assert_star_first(*member)


@pytest.mark.parametrize("n", [64, 96, 128, 210, 256])
def test_reverse_step_matches_the_star_first_reference_on_star_products(n):
    seen = 0
    for m in range(2, 11):
        if n % m:
            continue
        for f in oracle_ln(m):
            a = star(f, least_element(n // m))
            assert is_member(a, "L", n), (f, n)
            _assert_star_first(a, n)
            seen += 1
    assert seen >= 10


def test_reverse_walk_rarely_searches_for_a_star_factorization(step_events):
    # the star search waits for a probe whose test fails: over L_18 it runs
    # 537 times in the 7 279 steps, where a search first ran on every one
    steps = sum(1 for _ in enumerate_ln_descending(18)) - 1
    assert steps == 7279
    assert step_events.count("star") <= steps // 10


@pytest.mark.parametrize("k", [6, 8])
def test_reverse_step_from_a_least_element_probes_nothing(step_events, k):
    # the least element is told by its first cell and one comparison, before any scan
    n = 3 * 2**k
    a = least_element(n)
    for step in (_predecessor_parts, _predecessor_dn):
        with pytest.raises(Minimal):
            step(a, n)
    assert step_events == []


@pytest.mark.parametrize("k", [6, 8])
def test_resonant_reverse_step_pays_at_most_one_lexicality_test_first(step_events, k):
    # the successor of least_element(3 * 2**k) is a star product whose first cell
    # recurs about n/3 times: the scan calls the star search at its first rejected
    # probe, so at most one probe is tested before the search finds the factorization
    n = 3 * 2**k
    a = least_element(n)
    b = _successor_parts(a, n)[0]
    step_events.clear()
    assert _predecessor_parts(b, n)[0] == a
    assert "star" in step_events
    assert step_events[: step_events.index("star")].count("probe") <= 1


@pytest.mark.parametrize("k", [6, 8])
def test_resonant_reverse_step_builds_one_head_table(step_events, k):
    # the step down into least_element(3 * 2**k) is resonant: the scan builds the head
    # table of its input for the star search, and the companion tail's scan reads the
    # heads of g off that table and builds none of its own
    n = 3 * 2**k
    a = least_element(n)
    b = _successor_parts(a, n)[0]
    step_events.clear()
    assert _predecessor_parts(b, n)[0] == a
    assert step_events.count("table") == 1


@pytest.mark.parametrize("k", [6, 8, 10])
def test_forward_step_from_a_least_element_shares_one_head_table(step_events, k):
    # least_element(3 * 2**k) repeats its first cell n/3 times, and its step up
    # rejects most of its probes: they share one table of the heads' comparison
    # windows, and together they make about one suffix test per head
    n = 3 * 2**k
    a = least_element(n)
    _successor_parts(a, n)
    assert step_events.count("table") <= 1
    assert step_events.count("test") <= 1.5 * a.count(a[0])
