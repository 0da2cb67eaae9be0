"""Exponential search drawn in blocks, on either backend and any bit generator.

``qes`` draws a block's j values with one ``rng.integers`` and then its
uniforms with one ``rng.random``, cuts the block's rounds at the budget, and
locates rounds only until one succeeds. These tests check the budget cut and
the generator's end state against the draws replayed on a twin generator,
that both backends give the same outcome, and that the round log is built on
first read, which until then locates nothing and steps no state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslice import direct_marking_oracle, effective_state_new, search
from qslice.search import qes


def outcome_fields(outcome):
    rounds = [(r.iterations, r.measured, r.accepted) for r in outcome.rounds]
    return outcome.found_index, outcome.oracle_calls, rounds


def replay(rng, n_space, rounds):
    """The j and v of the first ``rounds`` rounds, drawn on ``rng`` in whole blocks."""
    ceilings = search._qes_ceilings(n_space)
    js, vs, first, size = [], [], 0, 2 * ceilings.size + 16
    while first < rounds:
        js.append(rng.integers(0, [ceilings[min(r, ceilings.size - 1)] for r in range(first, first + size)]))
        vs.append(rng.random(size))
        first, size = first + size, 2 * size
    return np.concatenate(js)[:rounds], np.concatenate(vs)[:rounds]


@st.composite
def searches(draw):
    n = draw(st.integers(1, 5))
    size = 1 << n
    marked = draw(st.one_of(st.just(()), st.sets(st.integers(0, size - 1), max_size=size)))
    root = math.ceil(math.sqrt(size))
    budget = draw(st.one_of(st.integers(1, 6 * root), st.integers(1, 60 * root)))
    return n, frozenset(marked), budget, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(searches())
def test_qes_cuts_its_blocks_at_the_budget_on_both_backends(case):
    n, marked, budget, seed = case
    got = {}
    for backend in search.BACKENDS:
        rng = np.random.default_rng(seed)
        outcome = qes(direct_marking_oracle(n, marked), rng, budget, backend)
        rounds = outcome.rounds
        assert outcome.oracle_calls == sum(r.iterations for r in rounds)
        assert not any(r.accepted for r in rounds[:-1])  # only the last round may succeed
        assert all(r.accepted == (r.measured in marked) for r in rounds)
        assert rounds[-1].accepted == (outcome.found_index is not None)
        # every round started within budget
        assert outcome.oracle_calls - rounds[-1].iterations <= budget
        if outcome.timed_out:
            assert outcome.oracle_calls > budget
        # the rounds are the draws' first ones, and the generator drew the
        # blocks that hold them and no more: a block whose first round would
        # start over budget is never drawn
        twin = np.random.default_rng(seed)
        j, _ = replay(twin, 1 << n, len(rounds))
        assert [r.iterations for r in rounds] == j.tolist()
        assert rng.bit_generator.state == twin.bit_generator.state
        got[backend] = outcome_fields(outcome)
    assert got["dense"] == got["effective"]


@pytest.mark.parametrize("backend", search.BACKENDS)
def test_qes_ends_at_a_block_boundary_without_drawing_the_next(backend):
    # a budget equal to the calls before a block's last round, whose j is
    # positive: that round starts and ends over budget, and the next block,
    # whose first round would start over budget, is neither drawn nor charged
    n = 6
    size = 2 * search._qes_ceilings(1 << n).size + 16
    seed = next(s for s in range(100) if replay(np.random.default_rng(s), 1 << n, size)[0][-1] > 0)
    j, _ = replay(np.random.default_rng(seed), 1 << n, size)
    for budget, rounds in ((int(j[:-1].sum()), size), (int(j.sum()), size + 1)):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        outcome = qes(direct_marking_oracle(n, ()), rng, budget, backend)
        assert len(outcome.rounds) == rounds and outcome.timed_out
        assert outcome.oracle_calls > budget >= outcome.oracle_calls - outcome.rounds[-1].iterations
        replay(twin, 1 << n, rounds)
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
def test_qes_draws_the_same_blocks_from_any_bit_generator(bit_generator):
    for n, marked in ((3, ()), (8, ()), (8, {5, 77}), (11, {1000})):
        rng, twin = np.random.Generator(bit_generator(31)), np.random.Generator(bit_generator(31))
        outcome = qes(direct_marking_oracle(n, marked), rng)
        j, v = replay(twin, 1 << n, len(outcome.rounds))
        assert [r.iterations for r in outcome.rounds] == j.tolist()
        evolution = search._evolution(direct_marking_oracle(n, marked))
        assert [r.measured for r in outcome.rounds] == list(map(evolution.locate, j.tolist(), v.tolist()))
        assert rng.random(8).tolist() == twin.random(8).tolist()  # the generators stand level


def test_block_qes_log_unread_takes_no_step_and_read_late_is_the_loops(monkeypatch):
    # an empty oracle's rounds are located only when the log is read, which
    # may be after another search has moved its evolution: the log read late
    # equals one read at once
    located = []

    def counting(locate):
        def counted(self, iterations, v):
            located.append(v)
            return locate(self, iterations, v)

        return counted

    for kind in (search._EffectiveEvolution, search._DenseEvolution):
        monkeypatch.setattr(kind, "locate", counting(kind.locate))
    for backend, n in (("effective", 4), ("effective", 9), ("effective", 13), ("dense", 3), ("dense", 5)):
        n_space = 1 << n
        budget = 6 * math.ceil(math.sqrt(n_space))
        for seed in range(3):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            late, eager = direct_marking_oracle(n, ()), direct_marking_oracle(n, ())
            evolution = search._evolution(late, backend)
            located.clear()
            got = qes(late, ours, budget, backend)
            assert not located and len(evolution.records) == 1  # no locate, no step
            want = qes(eager, theirs, budget, backend)
            want = search.SearchOutcome(want.found_index, want.oracle_calls, list(want.rounds))
            assert ours.bit_generator.state == theirs.bit_generator.state
            # another search leaves a dense CDF at a j past every round's, and
            # the evolution is stepped there (a uniform effective draw steps nothing)
            beyond = int(search._qes_ceilings(n_space)[-1]) + 2
            search.grover_search(late, beyond, np.random.default_rng(99), backend)
            evolution.record(beyond)
            assert len(evolution.records) == beyond + 1
            assert backend == "effective" or evolution._cdf_iterations == beyond
            located.clear()
            state = ours.bit_generator.state
            assert outcome_fields(got) == outcome_fields(want), (backend, n, seed)
            assert len(located) == len(got.rounds) and ours.bit_generator.state == state
            assert got == want and repr(got) == repr(want)


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
