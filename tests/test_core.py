import pytest
from hypothesis import given

from alphaseq.core import (
    EQUAL,
    GREATER,
    LESS,
    ZERO,
    SetContext,
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
    order_key,
    parse_sequence,
    power,
    require_member,
    star,
    two_adic_split,
)
from alphaseq.errors import InvalidN, NotInSet, PrefixAmbiguity, UndefinedOperation
from alphaseq.oracle import oracle_an, oracle_dn, oracle_ln

from conftest import nonempty_sequences, sequences, sequences_up_to_degree


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((2, 1), (3,), LESS),
        ((4, 3), (4, 2, 1), LESS),
        (ZERO, (1,), LESS),
        ((3, 1, 2, 1), (3, 1, 2, 1), EQUAL),
        ((3,), (2, 1), GREATER),
        (ZERO, ZERO, EQUAL),
        ((3,), (3, 1), GREATER),  # left factor of odd length: the longer one is below
        ((3, 1), (3, 1, 2), LESS),  # left factor of even length: the longer one is above
        ((3, 1, 2), (3, 1), GREATER),
    ],
)
def test_compare_examples(a, b, expected):
    assert compare(a, b) == expected


def test_compare_is_the_position_order_exhaustively():
    # a consistent strict total order: compare agrees with rank in the sorted
    # list, across degrees too, so left-factor pairs of both parities are in
    ordered = sorted(sequences_up_to_degree(8), key=order_key)
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            want = LESS if i < j else GREATER if i > j else EQUAL
            assert compare(a, b) == want


@given(sequences, sequences)
def test_compare_matches_order_key(a, b):
    ka, kb = order_key(a), order_key(b)
    want = LESS if ka < kb else GREATER if ka > kb else EQUAL
    assert compare(a, b) == want


@given(sequences, sequences)
def test_compare_antisymmetric(a, b):
    assert compare(a, b) == -compare(b, a)
    assert (compare(a, b) == EQUAL) == (a == b)


@given(sequences, sequences, sequences)
def test_compare_transitive(a, b, c):
    if compare(a, b) == LESS and compare(b, c) == LESS:
        assert compare(a, c) == LESS


@pytest.mark.parametrize(
    "a, expected",
    [
        ((2, 1, 2, 1), True),
        ((5,), True),
        ((1, 1), False),
        ((3, 1, 3), False),
        (ZERO, True),
        ((1,), True),
        ([2, 1, 2, 1], True),  # a list is accepted too
    ],
)
def test_is_lexical_examples(a, expected):
    assert is_lexical(a) is expected


def test_is_lexical_is_the_definition_exhaustively():
    # the first-cell filter passes compare only the suffixes that start with a[0]
    for a in sequences_up_to_degree(14):
        assert is_lexical(a) == all(compare(a, a[i:]) == GREATER for i in range(1, len(a))), a


def test_meet_examples():
    assert meet((3, 2, 3, 2), (3, 1, 1, 3, 2)) == (3, 1)
    assert meet((3, 1, 2, 1), (4, 2, 1)) == (3,)
    assert meet((2, 1), (2, 1)) == (2, 1)


def test_meet_prefix_is_an_error():
    with pytest.raises(PrefixAmbiguity):
        meet((3, 1), (3, 1, 2))
    with pytest.raises(PrefixAmbiguity):
        meet((3, 1, 2), (3, 1))
    with pytest.raises(PrefixAmbiguity):
        meet(ZERO, (1,))


@given(nonempty_sequences, nonempty_sequences)
def test_meet_symmetric_and_prefixed(a, b):
    try:
        m = meet(a, b)
    except PrefixAmbiguity:
        assert a[: len(b)] == b or b[: len(a)] == a
        return
    assert meet(b, a) == m
    assert m[:-1] == a[: len(m) - 1] == b[: len(m) - 1]
    assert m[-1] == min(a[len(m) - 1], b[len(m) - 1]) if a != b else True


def test_concat_and_power():
    assert power((3, 1), 2) == (3, 1) + (3, 1)
    assert power(ZERO, 4) == ZERO
    assert power((1,), 3) == (1, 1, 1)
    assert power((2, 1), 0) == ZERO
    with pytest.raises(ValueError):
        power((1,), -1)


def test_extend_even_odd_examples():
    assert extend_even((3,)) == (3, 1)
    assert extend_odd((3,)) == (4,)
    assert extend_odd(ZERO) == (1,)
    assert extend_even((3, 1)) == (3, 2)
    assert extend_odd((3, 1)) == (3, 1, 1)
    with pytest.raises(UndefinedOperation):
        extend_even(ZERO)


def test_extend_parity_and_degree_exhaustive():
    for a in sequences_up_to_degree(10):
        o = extend_odd(a)
        assert len(o) % 2 == 1 and degree(o) == degree(a) + 1
        if a:
            e = extend_even(a)
            assert len(e) % 2 == 0 and degree(e) == degree(a) + 1


def test_harmonic_examples():
    a = (3, 1, 2)
    assert harmonic(0, a) == a
    assert harmonic(3, ZERO) == (2, 1, 1, 2, 1)
    assert harmonic(1, (3,)) == (4, 3)
    with pytest.raises(ValueError):
        harmonic(-1, a)


def test_star_examples():
    assert star((3,), (1,)) == (4, 3)
    assert star(ZERO, (2, 1)) == (2, 1)
    assert star((2, 1), ZERO) == (2, 1)
    assert star((1,), (2,)) == (2, 1, 1, 1)


def test_degree_laws_exhaustive():
    # concatenation adds degrees; star and harmonic are multiplicative on 1 + degree
    pool = sequences_up_to_degree(8)
    for a in pool:
        for j in range(5):
            assert 1 + degree(harmonic(j, a)) == 2**j * (1 + degree(a))
        for b in pool:
            assert degree(a + b) == degree(a) + degree(b)
            assert 1 + degree(star(a, b)) == (1 + degree(a)) * (1 + degree(b))


def test_harmonics_meet_the_star_product_only_at_powers_of_two():
    # the D_n steps insert the harmonics of f below star(f, least_element(d)):
    # h_k(f) is that product for d = 2**k and differs from it for odd d / 2**k > 1
    for m in range(1, 13):
        for f in oracle_ln(m):
            for k in range(4):
                h = harmonic(k, f)
                assert h == star(f, least_element(2**k)), (f, k)
                for t in (1, 2):
                    assert h != star(f, least_element(2**k * (2 * t + 1))), (f, k, t)


def test_star_of_lexicals_is_lexical():
    lexicals = [a for a in sequences_up_to_degree(7) if is_lexical(a)]
    for a in lexicals:
        for b in lexicals:
            assert is_lexical(star(a, b)), (a, b)


@pytest.mark.parametrize(
    "a, expected",
    [
        ((1,), False),
        ((2, 1), False),
        ((3,), True),
        (ZERO, True),
        ((4, 3), False),
        ((2, 1, 1, 2, 1), False),
    ],
)
def test_is_fundamental_examples(a, expected):
    assert is_fundamental(a) is expected


def test_fundamental_means_not_a_first_harmonic():
    pool = sequences_up_to_degree(10)
    harmonics = {harmonic(1, b) for b in pool if degree(b) < 10}
    for a in pool:
        assert is_fundamental(a) == (a not in harmonics)


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, ZERO),
        (2, (1,)),
        (6, (2, 1, 1, 1)),
        (7, (2, 1, 1, 1, 1)),
        (8, (2, 1, 1, 2, 1)),
    ],
)
def test_least_element_examples(n, expected):
    assert least_element(n) == expected


def test_least_element_is_the_oracle_minimum():
    for n in range(1, 17):
        assert least_element(n) == oracle_ln(n)[0]


def test_least_element_cells_are_at_most_two():
    # star_factorize builds least_element(n) only for members starting with 1 or 2
    for n in range(2, 201):
        assert max(least_element(n)) <= 2, n


def test_least_element_invalid():
    # lru_cache stores no exceptions, so a bad n is rejected on every call
    for _ in range(2):
        with pytest.raises(InvalidN, match="^n must be >= 1, got 0$"):
            least_element(0)


def test_least_element_is_cached_on_its_public_name():
    # resonant steps in both directions ask for least_element at divisors of n; the cache on
    # the public name keeps the step p99 down, and __wrapped__ is the uncached construction
    for n in range(1, 65):
        assert least_element(n) is least_element(n), n
        assert least_element.__wrapped__(n) == least_element(n), n


def test_two_adic_split():
    assert two_adic_split(8) == (3, 0)
    assert two_adic_split(7) == (0, 3)
    assert two_adic_split(12) == (2, 1)
    with pytest.raises(InvalidN):
        two_adic_split(0)


def test_set_membership():
    assert SetContext("A", 4).contains((1, 1, 2))
    assert not SetContext("A", 4).contains((4, 1))
    assert not SetContext("A", 4).contains(ZERO)
    assert SetContext("L", 8).contains((4, 3))
    assert not SetContext("L", 8).contains((2, 3, 2))  # right degree, not lexical
    assert SetContext("D", 8).contains((2, 1))
    assert SetContext("D", 8).contains(ZERO)
    assert not SetContext("D", 8).contains((2,))  # class 3 does not divide 8
    with pytest.raises(InvalidN):
        SetContext("L", 0)


def test_membership_agrees_with_the_oracle():
    # every sequence of degree <= 12 against A_n, L_n and D_n for each n it could belong to
    candidates = sequences_up_to_degree(12)
    for kind, oracle_set, top in (("A", oracle_an, 12), ("L", oracle_ln, 13), ("D", oracle_dn, 13)):
        for n in range(1, top + 1):
            members = set(oracle_set(n))
            assert {a for a in candidates if is_member(a, kind, n)} == members, (kind, n)


def test_membership_rejects_bad_cells_n_and_kind():
    for kind in ("A", "L", "D"):
        assert not is_member((3, 0, 1), kind, 5)
        assert not is_member((4, -1, 1), kind, 5)
        for n in (0, -1):
            with pytest.raises(InvalidN, match=f"^n must be >= 1, got {n}$"):
                is_member((1,), kind, n)
    with pytest.raises(ValueError, match="kind must be A, L or D"):
        is_member((1,), "X", 2)
    with pytest.raises(ValueError, match="kind must be A, L or D"):
        SetContext("X", 2)


def test_require_member_returns_the_member_or_names_the_set():
    a = (4, 3)
    assert require_member(a, "L", 8) is a
    assert require_member(a, "D", 16) is a
    for kind, n in (("A", 8), ("L", 7), ("D", 12)):
        with pytest.raises(NotInSet, match=f"^4,3 is not a member of {kind}_{n}$"):
            require_member(a, kind, n)
    with pytest.raises(NotInSet, match="^0 is not a member of A_3$"):
        require_member(ZERO, "A", 3)


def test_parse_and_format():
    assert parse_sequence("3,1,2,1") == (3, 1, 2, 1)
    assert parse_sequence("0") == ZERO
    assert format_sequence((3, 1, 2, 1)) == "3,1,2,1"
    assert format_sequence(ZERO) == "0"
    for bad in ("", "3,x", "3,0,1", "-2", "1,"):
        with pytest.raises(ValueError):
            parse_sequence(bad)


def test_parse_accepts_ascii_digits_only():
    # int() would read each of these as positive cells, but none is the text form
    # format_sequence writes: underscores, signs, spaces, other scripts' digits
    for bad in ("1_0", "\u0661\u0662", "3, 1", "3 ,1", "+3", "\uff13", "1,\u20033"):
        with pytest.raises(ValueError, match="^not a sequence"):
            parse_sequence(bad)
    assert parse_sequence(" 3,1\n") == (3, 1)  # surrounding whitespace is not in a cell
    assert parse_sequence("007,1") == (7, 1)


@given(sequences)
def test_format_parse_round_trip(a):
    assert parse_sequence(format_sequence(a)) == a
