"""Exponential search on an oracle with no marked index, drawn as one block.

On the effective backend with a PCG64 generator, ``qes`` lays out the words
each round takes from numpy's documented draws and cuts its rounds from one
block of raw words. These tests pin those generator facts by name, and check
the block against the round-by-round loop on the outcome, every round and the
whole generator state, including both ways back to the loop. The round log is
built on first read, and until then locates nothing and steps no state.
"""

import math

import numpy as np
import pytest

from qslice import direct_marking_oracle, effective_state_new, search
from qslice.search import qes


class RawWords:
    """``rng.integers(0, k)`` and ``rng.random()`` on PCG64, from its raw 64-bit words."""

    def __init__(self, words, has_uint32=0, uinteger=0):
        self.words = iter(words.tolist())
        self.has_uint32, self.uinteger = has_uint32, uinteger

    def half(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        word = next(self.words)
        self.has_uint32, self.uinteger = 1, word >> 32
        return word & 0xFFFFFFFF

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        while True:  # Lemire's method: draw again below (2^32 - k) mod k
            product = self.half() * k
            if product & 0xFFFFFFFF >= (2**32 - k) % k:
                return product >> 32

    def random(self) -> float:
        return (next(self.words) >> 11) * 2.0**-53


def twin(rng):
    """A generator in the same state as ``rng``."""
    other = np.random.Generator(np.random.PCG64())
    other.bit_generator.state = rng.bit_generator.state
    return other


def zero_word_generator(position):
    """A PCG64 generator whose ``position``-th raw word from now is 0.

    PCG64 steps its 128-bit state, then emits the xor of the state's two
    64-bit halves rotated, so a stepped state with equal halves emits 0.
    """
    bits = np.random.PCG64(2024)
    state = bits.state
    half = 0x0123456789ABCDEF
    state["state"]["state"] = half << 64 | half
    bits.state = state
    bits.advance(2**128 - position)
    return np.random.Generator(bits)


def outcome_fields(outcome):
    rounds = [(r.iterations, r.measured, r.accepted) for r in outcome.rounds]
    return outcome.found_index, outcome.oracle_calls, rounds


@pytest.mark.parametrize("pending", [False, True])
def test_pcg64_integers_and_random_are_the_raw_word_emulation(pending):
    rng = np.random.default_rng(606)
    if pending:
        rng.integers(0, 7)
    state = rng.bit_generator.state
    emulated = RawWords(twin(rng).bit_generator.random_raw(8000), state["has_uint32"], state["uinteger"])
    pattern = np.random.default_rng(607).integers(0, 101, 3000)
    for k in pattern.tolist():  # k = 0 stands for rng.random()
        if k:
            assert int(rng.integers(0, k)) == emulated.integers(k), k
        else:
            assert rng.random() == emulated.random()
    state = rng.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (emulated.has_uint32, emulated.uinteger)


def test_pcg64_integers_draws_again_below_lemires_floor():
    rng = zero_word_generator(3)
    emulated = RawWords(twin(rng).bit_generator.random_raw(8))
    rng.random(), rng.random()
    emulated.random(), emulated.random()
    # x = 0 gives (0 * 3) mod 2^32 = 0 < (2^32 - 3) mod 3 = 1: both halves of
    # the zero word are drawn again, and the low half of the next word is used
    assert int(rng.integers(0, 3)) == emulated.integers(3)
    assert int(rng.integers(0, 3)) == emulated.integers(3)
    state = rng.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (emulated.has_uint32, emulated.uinteger)
    assert twin(zero_word_generator(3)).bit_generator.random_raw(3)[-1] == 0


def round_loop(oracle, rng, budget):
    """``qes`` with the block path declined, so that its round loop runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_qes_unmarked", lambda *args: None)
        return qes(oracle, rng, budget)


def spy_on_blocks(monkeypatch):
    """The outcomes ``_qes_unmarked`` returns from now on, None where it declined."""
    outcomes, unmarked = [], search._qes_unmarked
    monkeypatch.setattr(search, "_qes_unmarked", lambda *args: outcomes.append(unmarked(*args)) or outcomes[-1])
    return outcomes


def budgets(n_space):
    """Budgets from 1 to 6 sqrt(N), and one that outruns a first block of rounds."""
    root = math.ceil(math.sqrt(n_space))
    return sorted({1, 2, 3, root, 2 * root + 1, 5 * root, 6 * root, 40 * root})


def test_block_qes_equals_the_round_loop(monkeypatch):
    outcomes = spy_on_blocks(monkeypatch)
    layout, laid_out = search._qes_layout, []
    monkeypatch.setattr(search, "_qes_layout", lambda *args: laid_out.append(args) or layout(*args))
    cases = 0
    for n in range(1, 14):
        for budget in budgets(1 << n):
            for pending, seed in ((False, 0), (True, 1), (False, 2), (True, 3)):
                seed += 10 * budget + 100_000 * n
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                if pending:
                    ours.integers(0, 7), theirs.integers(0, 7)
                block, reference = direct_marking_oracle(n, ()), direct_marking_oracle(n, ())
                for _ in range(3):  # repeated calls on one generator and one oracle
                    got = qes(block, ours, budget)
                    want = round_loop(reference, theirs, budget)
                    assert outcome_fields(got) == outcome_fields(want), (n, budget, pending)
                    assert ours.bit_generator.state == theirs.bit_generator.state
                    cases += 1
    assert cases == 3 * 4 * sum(len(budgets(1 << n)) for n in range(1, 14))
    assert len(outcomes) == cases and None not in outcomes  # every case ran as a block
    assert any(rounds > 2 * len(search._qes_ceilings(n)) + 16 for n, _, rounds in laid_out)


def test_block_qes_locates_margin_rounds_as_the_loop_does(monkeypatch):
    outcomes = spy_on_blocks(monkeypatch)
    located = []
    reference_locate = search._Evolution.locate

    def counted(self, iterations, v):
        located.append(v)
        return reference_locate(self, iterations, v)

    monkeypatch.setattr(search._Evolution, "locate", counted)
    for n in (1, 4, 9, 13):
        n_space = 1 << n
        budget = 6 * math.ceil(math.sqrt(n_space))
        for seed in range(3):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            block, reference = direct_marking_oracle(n, ()), direct_marking_oracle(n, ())
            evolutions = search._evolution(block), search._evolution(reference)
            for evolution in evolutions:  # every uniform lies within the margin
                monkeypatch.setattr(evolution, "_margin", 0.5 / n_space)
            located.clear()
            got = qes(block, ours, budget)
            rounds = got.rounds  # the log locates its rounds when it is read
            assert len(located) == len(rounds) and outcomes[-1] is got
            assert got.rounds is rounds and len(located) == len(rounds)  # once
            want = round_loop(reference, theirs, budget)
            assert outcome_fields(got) == outcome_fields(want), (n, seed)
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert len(evolutions[0].records) == len(evolutions[1].records) > 1


def test_block_qes_log_unread_takes_no_step_and_read_late_is_the_loops(monkeypatch):
    located = []
    reference_locate = search._Evolution.locate

    def counted(self, iterations, v):
        located.append(v)
        return reference_locate(self, iterations, v)

    monkeypatch.setattr(search._Evolution, "locate", counted)
    for n in (4, 9, 13):
        n_space = 1 << n
        budget = 6 * math.ceil(math.sqrt(n_space))
        for seed in range(3):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            block, reference = direct_marking_oracle(n, ()), direct_marking_oracle(n, ())
            evolution = search._evolution(block)
            for each in (evolution, search._evolution(reference)):  # every v within the margin
                monkeypatch.setattr(each, "_margin", 0.5 / n_space)
            located.clear()
            got = qes(block, ours, budget)
            assert not located and len(evolution.records) == 1  # no locate, no step
            want = round_loop(reference, theirs, budget)
            assert ours.bit_generator.state == theirs.bit_generator.state
            # another search steps the evolution past every round's j and
            # leaves its CDF at that j
            beyond = search._qes_ceilings(n_space)[-1] + 2
            search.grover_search(block, beyond, np.random.default_rng(99))
            assert len(evolution.records) == beyond + 1 and evolution._cdf_iterations == beyond
            located.clear()
            state = ours.bit_generator.state
            assert outcome_fields(got) == outcome_fields(want), (n, seed)
            assert len(located) == len(got.rounds) and ours.bit_generator.state == state
            eager = search.SearchOutcome(want.found_index, want.oracle_calls, list(want.rounds))
            assert got == eager and repr(got) == repr(eager)


def test_block_qes_hands_a_redrawn_j_to_the_round_loop(monkeypatch):
    # At N = 64 the ceilings run 1, 2, 2, 2, 2, 2, 3, 3, ...; entered with no
    # pending half, round 7 loads word 11 for its x, drawn below k = 3
    assert search._qes_ceilings(64)[:8] == (1, 2, 2, 2, 2, 2, 3, 3)
    outcomes = spy_on_blocks(monkeypatch)
    ours, theirs = zero_word_generator(11), zero_word_generator(11)
    got = qes(direct_marking_oracle(6, ()), ours, 48)
    want = round_loop(direct_marking_oracle(6, ()), theirs, 48)
    assert outcomes == [None] and len(got.rounds) > 8
    assert outcome_fields(got) == outcome_fields(want)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize(
    "bit_generator, want",
    [
        (np.random.MT19937, [(16, 14, 62), (83, 26, 3491), (231, 30, 31837)]),
        (np.random.Philox, [(16, 19, 63), (88, 27, 3104), (258, 36, 33413)]),
    ],
)
def test_qes_on_other_bit_generators_runs_the_round_loop(monkeypatch, bit_generator, want):
    outcomes = spy_on_blocks(monkeypatch)
    rng = np.random.Generator(bit_generator(31))
    got = []
    for n in (3, 8, 11):
        outcome = qes(direct_marking_oracle(n, ()), rng)
        got.append((outcome.oracle_calls, len(outcome.rounds), sum(r.measured for r in outcome.rounds)))
    assert got == want and not outcomes  # as before the block path existed


def test_effective_evolution_builds_no_amplitudes_before_its_first_step():
    oracle = direct_marking_oracle(10, ())
    qes(oracle, np.random.default_rng(4))
    evolution = oracle.evolution
    assert evolution.state is None
    uniform = float(effective_state_new(10).amplitudes[0])
    assert evolution.records[0] == (0.0, uniform)
    assert evolution.record(2) == (0.0, uniform)  # the empty oracle's state stays uniform
    assert evolution.state.amplitudes.size == 1 << 10
    with pytest.raises(ValueError, match="cap"):
        search._EffectiveEvolution(np.zeros(2, dtype=bool), 25)
