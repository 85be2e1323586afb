"""The bit-iteration kernel against a plain shift-and-test loop."""

import random

from hyperring_lab.bitsets import MEMBER_TABLE_SIZE, iter_bits, members


def _shift_and_test(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _masks():
    rng = random.Random(27)
    return [0, *(1 << k for k in range(70)), *(rng.getrandbits(70) for _ in range(300))]


def _assert_kernel_matches(masks):
    for mask in masks:
        expect = _shift_and_test(mask)
        assert iter_bits(mask) == tuple(expect), mask
        assert members(mask) == expect, mask


def test_members_match_a_shift_and_test_loop():
    _assert_kernel_matches(_masks())


def test_members_match_after_the_table_fills_past_its_bound():
    masks = _masks()
    _assert_kernel_matches(masks)
    # Distinct masks beyond the bound push the first ones out of the table.
    for mask in range(1 << 71, (1 << 71) + MEMBER_TABLE_SIZE + 500):
        assert iter_bits(mask)[-1] == 71
    assert iter_bits.cache_info().currsize == MEMBER_TABLE_SIZE
    _assert_kernel_matches(masks)


def test_iter_bits_hands_out_a_tuple_and_members_a_fresh_list():
    mask = 0b101101
    assert type(iter_bits(mask)) is tuple
    assert iter_bits(mask) is iter_bits(mask)
    first = members(mask)
    second = members(mask)
    assert first == second == [0, 2, 3, 5]
    assert first is not second
    first.append(9)
    assert members(mask) == [0, 2, 3, 5]
    assert iter_bits(mask) == (0, 2, 3, 5)
