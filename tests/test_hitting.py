import gc
import random
import weakref
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_hitting_sets,
    instance_from_sets,
    int_to_row_tuple,
    row_tuple_to_int,
    without_speed_ups,
)
from minclue.bitrows import con8, con8_table
from minclue import hitting
from minclue._pykernels import INT_MAX
from minclue.errors import BudgetExceededError
from minclue.hitting import (
    EngineConfig,
    HittingInstance,
    check_level,
    enumerate_hitting_sets,
    format_hitting_set,
    parse_instance,
    per_candidate,
)

WORKED_FAMILY = [{0, 3, 9, 12}, {0, 1, 27, 28}, {3, 4, 66, 67}]


def make_instance(universe, k, families):
    return instance_from_sets(universe, k, families)


def run(instance, config=EngineConfig(), stats=None):
    got = []
    enumerate_hitting_sets(instance, config, per_candidate(instance.k, got.append), stats)
    return got


def run_each_backend(backends, instance, config=EngineConfig()):
    """enumerate_hitting_sets once per available backend; asserts that all
    of them emit the same sets in the same order with equal stats, and
    returns (emitted, stats)."""
    results = []
    saved = hitting.kernels
    try:
        for kern in backends.values():
            hitting.kernels = kern
            results.append((run(instance, config, stats := {}), stats))
    finally:
        hitting.kernels = saved
    for other in results[1:]:
        assert other == results[0]
    return results[0]


def random_instance(rng, max_universe=40, max_k=6, max_sets=30):
    universe = rng.randint(4, max_universe)
    k = rng.randint(1, min(max_k, universe))
    n_sets = rng.randint(0, max_sets)
    deg1 = []
    for _ in range(n_sets):
        size = rng.randint(2, min(8, universe))
        deg1.append(set(rng.sample(range(universe), size)))
    families = {1: deg1}
    if len(deg1) >= 2 and rng.random() < 0.6:
        deg2 = []
        for _ in range(8):
            a, b = rng.sample(deg1, 2)
            if not a & b:
                deg2.append(a | b)
        if deg2:
            families[2] = deg2
    if len(deg1) >= 3 and k >= 3 and rng.random() < 0.3:
        deg3 = []
        for _ in range(8):
            picks = rng.sample(deg1, 3)
            if all(x.isdisjoint(y) for x in picks for y in picks if x is not y):
                deg3.append(picks[0] | picks[1] | picks[2])
        if deg3:
            families[3] = deg3
    return make_instance(universe, k, families)


class TestWorkedInstance:
    def test_exactly_seven_sets(self):
        instance = make_instance(81, 2, {1: WORKED_FAMILY})
        got = run(instance)
        assert sorted(got) == [
            (0, 3),
            (0, 4),
            (0, 66),
            (0, 67),
            (1, 3),
            (3, 27),
            (3, 28),
        ]
        assert len(got) == len(set(got))


class TestSmallCases:
    def test_single_set_k1(self):
        assert run(make_instance(5, 1, {1: [{0}]})) == [(0,)]

    def test_empty_family_enumerates_all_subsets(self):
        got = run(make_instance(5, 2, {1: []}))
        assert len(got) == 10
        assert len(set(got)) == 10

    def test_family_with_empty_set_has_no_hitting_sets(self):
        assert run(make_instance(5, 2, {1: [set(), {0}]})) == []

    def test_universe_bound(self):
        with pytest.raises(ValueError):
            HittingInstance(129, 2, {1: ()})


class TestHittingVectors:
    """A cell's hitting row marks exactly the sets that contain it."""

    def test_membership_rows(self, backends):
        # with k = 1 the engine emits exactly the cells every set contains
        for n in (1, 2, 3):
            for subfamily in combinations(WORKED_FAMILY, n):
                got, _ = run_each_backend(
                    backends, make_instance(81, 1, {1: list(subfamily)})
                )
                assert sorted(got) == [(c,) for c in sorted(set.intersection(*subfamily))]
        a, b, c = WORKED_FAMILY
        assert run_each_backend(backends, make_instance(81, 1, {1: [a, b]}))[0] == [(0,)]
        assert run_each_backend(backends, make_instance(81, 1, {1: [a, c]}))[0] == [(3,)]

    def test_cell_in_no_set_is_zero(self, backends):
        instance = make_instance(10, 1, {1: [{0, 1}]})
        assert run_each_backend(backends, instance)[0] == [(0,), (1,)]
        instance = make_instance(10, 2, {1: [{0, 1}]})
        got, _ = run_each_backend(backends, instance)
        assert sorted(got) == brute_force_hitting_sets(instance)
        assert len(got) == 17  # C(10, 2) - C(8, 2): cell 9 alone hits nothing


class TestCon8:
    def test_worked_example(self):
        mask = row_tuple_to_int((0, 1, 1, 0, 1, 0, 1, 0))
        bits = row_tuple_to_int((1, 1, 0, 1, 0, 0, 1, 0))
        assert int_to_row_tuple(con8(mask, bits), 8) == (1, 1, 0, 0, 0, 0, 0, 0)

    def test_zero_mask_is_identity(self):
        for bits in (0, 0b10101010, 0xFF):
            assert con8(0, bits) == bits

    def test_full_mask_gives_zero(self):
        for bits in (0, 0b1111, 0xFF):
            assert con8(0xFF, bits) == 0

    def test_table_matches_definition_exhaustively(self):
        table = con8_table()
        for mask in range(256):
            for bits in range(256):
                out = 0
                j = 0
                for p in range(8):
                    if not (mask >> p) & 1:
                        out |= ((bits >> p) & 1) << j
                        j += 1
                assert table[(mask << 8) | bits] == out


class TestConsolidate:
    """Consolidation compacts a degree's rows to its unhit sets, in slot
    order, keeping at most `cap` of them.  The plans are made by hand:
    resolve_plan leaves out these caps, which keep the whole family."""

    SETS = [{0, 1}, {2, 3}, {4, 5}]

    def consolidated(self, backends, instance):
        plan = list(hitting.resolve_plan(instance, EngineConfig()))
        plan[5] = {2: (1, 8)}  # consolidations
        return run_plan_each_backend(backends, plan)

    def test_all_ones_empties_the_table(self, backends):
        # the degree-2 set holds the whole first drawn-from set, so it is hit
        # at every level-1 node and consolidation leaves an empty table
        families = {1: self.SETS, 2: [{0, 1, 2, 3}]}
        instance = make_instance(8, 3, families)
        got, stats = self.consolidated(backends, instance)
        assert stats["consolidations"] == 2
        assert stats["degree_cuts"] == {2: 0}
        without, base = run_each_backend(backends, make_instance(8, 3, {1: self.SETS}))
        assert got == without and stats["nodes"] == base["nodes"]

    def test_all_zeros_is_identity_reindexing(self, backends):
        # no draw from {0, 1} hits the degree-2 set: consolidating its
        # all-zero row renumbers nothing, so the run is the same run
        instance = make_instance(8, 3, {1: self.SETS, 2: [{2, 3, 4, 5}]})
        got, stats = self.consolidated(backends, instance)
        plain, base = run_each_backend(
            backends, instance, EngineConfig(consolidation={})
        )
        assert stats["consolidations"] == 2 and base["consolidations"] == 0
        assert got == plain == [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
                                (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)]
        assert dict(stats, consolidations=0) == base
        assert stats["degree_cuts"] == {2: 0}

    def test_cap_truncates(self, backends):
        # at level 1 the cap keeps {2, 3}, the first unhit set, and drops
        # {4, 5}; a degree-1 set that is dropped stops being required
        instance = make_instance(8, 2, {1: self.SETS})
        assert brute_force_hitting_sets(instance) == []
        got, stats = run_each_backend(
            backends, instance, EngineConfig(consolidation={1: (1, 1)})
        )
        assert got == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert stats["consolidations"] == 2
        roomy, _ = run_each_backend(
            backends, instance, EngineConfig(consolidation={1: (1, 2)})
        )
        assert roomy == []

    def test_enumeration_unchanged_by_consolidation(self):
        rng = random.Random(77)
        for _ in range(25):
            instance = random_instance(rng, max_universe=24, max_k=5, max_sets=14)
            base = run(instance, EngineConfig(consolidation={}))
            generous = EngineConfig(
                consolidation={
                    1: (max(1, instance.k - 1), 4096),
                    2: (1, 4096),
                    3: (1, 4096),
                }
            )
            assert run(instance, generous) == base


class TestEffectiveSizeAndSelection:
    # sorted by size: A = {0, 1}, then B = {2, 3, 4} before C = {0, 5, 6}.
    # Drawing 1 from A kills cell 0, leaving C two live cells to B's three.
    # Level 1 decides: full_through 2 scans it, 1 takes the first unhit set.
    SETS = [{0, 1}, {2, 3, 4}, {0, 5, 6}]

    def test_selection_counts_live_cells(self, backends):
        """Selection counts only live cells: under cell 1 it draws from C."""
        instance = make_instance(10, 3, {1: self.SETS})
        got, stats = run_each_backend(backends, instance, EngineConfig(full_through=2))
        assert sorted(got) == brute_force_hitting_sets(instance)
        assert got[-6:] == [(1, 2, 5), (1, 3, 5), (1, 4, 5),
                            (1, 2, 6), (1, 3, 6), (1, 4, 6)]
        assert stats["selection_cuts"] == 0

    def test_first_unhit_reproduces_baseline(self, backends):
        """From level full_through on, the engine draws from the first
        unhit set: under cell 1 that is B, whatever C's live cells."""
        instance = make_instance(10, 3, {1: self.SETS})
        for full_through in (1, 0):
            config = EngineConfig(full_through=full_through)
            got, stats = run_each_backend(backends, instance, config)
            assert sorted(got) == brute_force_hitting_sets(instance)
            assert got[-6:] == [(1, 2, 5), (1, 2, 6), (1, 3, 5),
                                (1, 3, 6), (1, 4, 5), (1, 4, 6)]
            # the worked family: A is drawn first, then C, the first set 0 misses
            worked = make_instance(81, 2, {1: WORKED_FAMILY})
            assert run_each_backend(backends, worked, config)[0][0] == (0, 3)

    def test_fully_dead_selected_set_cuts(self, backends):
        """An empty set sorts first and never has a live cell.  A scan at
        the root selects it and cuts; first-unhit selection draws from it,
        which has no cell to branch on, and counts no cut."""
        instance = make_instance(6, 2, {1: [{0, 1}, set(), {2, 3}]})
        for full_through, cuts in ((1, 1), (0, 0)):
            got, stats = run_each_backend(
                backends, instance, EngineConfig(full_through=full_through)
            )
            assert got == [] == brute_force_hitting_sets(instance)
            assert stats["selection_cuts"] == cuts
            assert stats["nodes"] == 1

    @pytest.mark.parametrize("consolidating", [True, False])
    def test_only_an_empty_set_cuts(self, backends, consolidating):
        """With full scans through some level and first-unhit selection
        below it, only an empty set cuts: a scanned set that lost its last
        live cell at a level had fewer live cells there than the set drawn
        from, so the scan would have drawn from it.  Random instances hold
        no empty set."""
        rng = random.Random(4242)
        for trial in range(300):
            instance = random_instance(rng, max_universe=20, max_k=5, max_sets=16)
            oracle = brute_force_hitting_sets(instance)
            consolidation = (
                {1: (1, rng.randint(1, 8)), 2: (1, 4), 3: (1, 4)} if consolidating else {}
            )
            for full_through in range(instance.k + 1):
                config = EngineConfig(consolidation=consolidation, full_through=full_through)
                got, stats = run_each_backend(backends, instance, config)
                assert stats["selection_cuts"] == 0, (trial, full_through)
                if not consolidating:
                    assert sorted(got) == oracle, (trial, full_through)


class TestOracleEquivalence:
    def test_flag_combinations_on_random_instances(self):
        rng = random.Random(20260808)
        for trial in range(40):
            full = random_instance(rng, max_universe=28, max_k=5, max_sets=16)
            oracle = brute_force_hitting_sets(full)
            config = EngineConfig(
                consolidation={
                    1: (max(1, full.k - 1), 64),
                    2: (1, 64),
                    3: (1, 64),
                },
                full_through=full.k - 2,
            )
            for flags in product((True, False), repeat=3):
                instance, switched = without_speed_ups(full, config, *flags)
                got = run(instance, switched)
                assert sorted(got) == oracle, (trial, flags)
                assert len(got) == len(set(got)), (trial, flags)

    def test_degree_pruning_never_changes_emission(self):
        rng = random.Random(31337)
        for _ in range(30):
            instance = random_instance(rng, max_universe=24, max_k=5, max_sets=14)
            base = run(*without_speed_ups(instance, EngineConfig(), False, True, True))
            pruned = run(instance, EngineConfig())
            assert base == pruned


class TestPinnedPlans:
    """The plans that the default and the baseline configurations resolve
    to on a fixed instance with degree-2 and degree-3 families."""

    INSTANCE = make_instance(
        20, 8,
        {1: [{0, 1, 2}, {3, 4}, {5, 6, 7, 8}, {9, 10}, {0, 11}],
         2: [{3, 4, 9, 10}, {0, 5, 6, 7, 8, 11}],
         3: [{0, 1, 2, 3, 4, 9, 10}]},
    )
    DEGREE_ONE = [24, 1536, 2049, 7, 480]  # sorted by size

    def test_default_plan(self):
        """Every default cap keeps these families whole, so no
        consolidation is left; full scans run through level k - 6 = 2."""
        assert hitting.resolve_plan(self.INSTANCE, EngineConfig()) == (
            20, 8, [1, 2, 3], [self.DEGREE_ONE, [1560, 2529], [1567]],
            {2: 7, 3: 6},
            {},
            2,
        )

    def test_caps_below_the_family_size_stay(self):
        config = EngineConfig(consolidation={1: (7, 4), 2: (5, 2), 3: (5, 1)})
        assert hitting.resolve_plan(self.INSTANCE, config)[5] == {1: (7, 4)}

    def test_baseline_plan(self):
        """No check levels, no consolidation and first-unhit selection at
        every level, on the degree-1 family baseline_config searches."""
        from minclue.checker import baseline_config

        config = baseline_config()
        assert config.clique_degrees == ()
        instance = HittingInstance(20, 8, {1: self.INSTANCE.degree_one()})
        assert hitting.resolve_plan(instance, config.engine) == (
            20, 8, [1], [self.DEGREE_ONE], {}, {}, 0,
        )

    def test_full_through_clamped_to_zero_through_k(self):
        """None is k - 6; any int is clamped to 0..k, so the native engine
        takes a C int whatever the setting."""
        for full_through, level in ((None, 2), (-3, 0), (0, 0), (5, 5),
                                    (8, 8), (9, 8), (2**40, 8)):
            config = EngineConfig(full_through=full_through)
            assert hitting.resolve_plan(self.INSTANCE, config)[6] == level

    def test_zero_widths_draw_from_the_first_unhit_set(self, backends):
        """full_through 0 scans no level, so every level draws from the
        first unhit set.  Under cells 1 and 3, {0, 2} is the first unhit set
        and both its cells are dead: the node has no cell to branch on and
        counts no selection cut.  Scans through level 2 draw from {0, 2}
        under cell 1 already and never reach that node."""
        instance = make_instance(6, 3, {1: [{0, 1}, {2, 3}, {0, 2}]})
        (first, first_stats), (scan, scan_stats) = (
            run_each_backend(backends, instance, EngineConfig(full_through=full_through))
            for full_through in (0, 2)
        )
        assert hitting.resolve_plan(instance, EngineConfig(full_through=0))[6] == 0
        assert sorted(first) == sorted(scan) == brute_force_hitting_sets(instance)
        assert first_stats["selection_cuts"] == scan_stats["selection_cuts"] == 0
        assert first_stats["nodes"] == scan_stats["nodes"] + 1

    @pytest.mark.parametrize("entry", [(2**31, 8), (7, 2**31), (7, 2**32 + 1)])
    def test_trigger_or_cap_past_a_c_int_refused(self, entry):
        with pytest.raises(ValueError, match="triggers and caps"):
            EngineConfig(consolidation={1: entry})
        EngineConfig(consolidation={1: (2**31 - 1, 2**31 - 1)})  # the largest C int


class TestBruteForceOracle:
    def test_worked_example_reproduced(self):
        instance = make_instance(81, 2, {1: WORKED_FAMILY})
        assert brute_force_hitting_sets(instance) == [
            (0, 3),
            (0, 4),
            (0, 66),
            (0, 67),
            (1, 3),
            (3, 27),
            (3, 28),
        ]

    def test_k_equals_universe(self):
        instance = make_instance(4, 4, {1: [{0}, {3}]})
        assert brute_force_hitting_sets(instance) == [(0, 1, 2, 3)]

    def test_empty_member_kills_everything(self):
        instance = make_instance(5, 2, {1: [set()]})
        assert brute_force_hitting_sets(instance) == []

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            brute_force_hitting_sets(make_instance(128, 10, {1: [{0}]}))


class TestInstanceFile:
    def test_parse_and_format(self):
        text = "81 2\n1: 0,3,9,12\n1: 0,1,27,28\n1: 3,4,66,67\n2: 0,1,3,4,27,28,66,67\n"
        instance = parse_instance(text)
        assert instance.universe_size == 81 and instance.k == 2
        assert len(instance.families[1]) == 3
        assert len(instance.families[2]) == 1
        got = run(instance)
        assert len(got) == 7
        assert format_hitting_set(got[0]) == ",".join(map(str, got[0]))

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            parse_instance("")
        with pytest.raises(ValueError):
            parse_instance("81\n")
        with pytest.raises(ValueError):
            parse_instance("81 2\nnot a set\n")


class TestBatchEmission:
    """Both engines hand the sink whole candidates, k ascending cell bytes
    each, `batch` of them per call and the rest in one last call."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batches_concatenate_to_the_same_bytes(self, backends, seed):
        instance = random_instance(
            random.Random(seed), max_universe=16, max_k=4, max_sets=12
        )
        k = instance.k
        plan = hitting.resolve_plan(instance, EngineConfig())
        joined = set()
        for name, kern in backends.items():
            for batch in (1, 3, hitting.EMIT_BATCH):
                calls = []
                stats = kern.run_hitting(*plan, calls.append, batch)
                data = b"".join(calls)
                assert all(len(c) == batch * k for c in calls[:-1]), (name, batch)
                assert all(0 < len(c) <= batch * k for c in calls[-1:]), (name, batch)
                assert stats["emitted"] * k == len(data), (name, batch)
                joined.add(data)
        assert len(joined) == 1
        cells = list(joined.pop())
        got = [tuple(cells[i : i + k]) for i in range(0, len(cells), k)]
        assert got == run(instance)
        assert all(list(c) == sorted(set(c)) for c in got)
        assert sorted(got) == brute_force_hitting_sets(instance)

    def test_emit_batch_sets_the_call_size(self, backends, monkeypatch):
        instance = make_instance(81, 2, {1: WORKED_FAMILY})
        monkeypatch.setattr(hitting, "EMIT_BATCH", 3)
        for name, kern in backends.items():
            monkeypatch.setattr(hitting, "kernels", kern)
            calls = []
            assert enumerate_hitting_sets(instance, EngineConfig(), calls.append) == 7
            assert [len(c) for c in calls] == [6, 6, 2], name

    def test_batch_below_one_raises(self, backends):
        plan = hitting.resolve_plan(make_instance(8, 2, {1: [{0, 1}]}), EngineConfig())
        for name, kern in backends.items():
            with pytest.raises(ValueError):
                kern.run_hitting(*plan, lambda batch: None, 0)


class TestDeterminism:
    def test_identical_runs_identical_order(self):
        rng = random.Random(8)
        instance = random_instance(rng)
        assert run(instance) == run(instance)


class TestSinkLifetime:
    def test_sink_released_when_engine_returns(self, backends):
        """No reference cycle keeps the sink alive after the call."""
        class Sink:
            def __call__(self, cells):
                pass

        instance = make_instance(8, 2, {1: [{0, 1}, {2, 3}]})
        saved = hitting.kernels
        gc.disable()
        try:
            for name, kern in backends.items():
                hitting.kernels = kern
                sink = Sink()
                ref = weakref.ref(sink)
                assert enumerate_hitting_sets(instance, EngineConfig(), sink) == 4
                del sink
                assert ref() is None, name
        finally:
            gc.enable()
            hitting.kernels = saved


def run_plan_each_backend(backends, plan):
    """kernels.run_hitting on a resolved, possibly hand-edited plan, once per
    available backend; asserts identical emission order and stats, and
    returns (emitted, stats)."""
    results = []
    for kern in backends.values():
        got = []
        results.append((got, kern.run_hitting(*plan, per_candidate(plan[1], got.append), 1)))
    for other in results[1:]:
        assert other == results[0]
    return results[0]


def hub_instance(seed, m, k=3):
    """k over 100 cells: m degree-1 sets, each one of the hub cells 64,
    81 and 99 plus 1-4 random cells, and degree-2 unions of disjoint pairs.
    The hubs put cells >= 64 into most kept sets."""
    rng = random.Random(seed)
    hubs = (64, 81, 99)
    deg1 = [{rng.choice(hubs), *rng.sample(range(100), rng.randint(1, 4))}
            for _ in range(m)]
    deg2 = []
    for _ in range(200):
        a, b = rng.sample(deg1, 2)
        if not a & b:
            deg2.append(a | b)
    return make_instance(100, k, {1: deg1, 2: deg2})


class TestConsolidationScatter:
    """Consolidation at level 1 rebuilds the tables from the kept sets' cell
    masks: m not a multiple of 64 (so unhit slots sit in a partial last
    word), caps above 64 that stop inside a word, kept sets with cells >= 64.
    The plans are made by hand, since resolve_plan leaves out a cap that
    keeps the whole family."""

    @pytest.mark.parametrize("m", [65, 128, 150])
    def test_parity_and_oracle(self, backends, m):
        instance = hub_instance(m, m)
        oracle = brute_force_hitting_sets(instance)
        first = instance.families[1][0]
        # some level-1 node leaves a slot of the last word unhit
        assert any(not (mask >> c) & 1
                   for c in range(100) if (first >> c) & 1
                   for mask in instance.families[1][(m - 1) & ~63:])
        for cap in (m, 100, 70):
            plan = list(hitting.resolve_plan(instance, EngineConfig()))
            plan[5] = {1: (1, cap), 2: (1, 70)}  # consolidations
            got, stats = run_plan_each_backend(backends, plan)
            assert stats["consolidations"] > 0
            assert len(got) == len(set(got))
            if cap >= m:  # nothing dropped: exactly the hitting sets
                assert sorted(got) == oracle
            else:  # dropped sets stop being required
                assert set(oracle) <= set(got)
        plain, base = run_each_backend(
            backends, instance, EngineConfig(consolidation={})
        )
        assert sorted(plain) == oracle and base["consolidations"] == 0


class TestSkippedRebuilds:
    """A consolidation that keeps every unhit set keeps them in slot order
    and only renumbers them.  Nothing reads slot numbers, so the run equals
    the run without the consolidation except for the consolidation count,
    and resolve_plan leaves such a consolidation out."""

    @pytest.mark.parametrize("name", ["python", "native"])
    def test_keeping_every_set_changes_nothing(self, backends, name):
        """Random instances and full-scan depths, each run by
        hand with and without a consolidation of every degree whose cap
        keeps all its sets, at random triggers before the degree's check.
        Degree-d sets hold 3d to 4d cells: with sizes that close, dead
        cells decide many selections, so a bound that read slot numbers
        would change the runs."""
        if name not in backends:
            pytest.skip(f"no {name} backend")
        kern = backends[name]
        rng = random.Random(2201)
        for trial in range(300):
            universe = rng.randint(6, 40)
            k = rng.randint(1, min(7, universe))
            while comb(universe, k) > 10**5:  # bounds the free-fill
                k -= 1
            families = {}
            for degree in range(1, rng.randint(1, 3) + 1):
                families[degree] = [
                    set(rng.sample(range(universe), rng.randint(
                        min(3 * degree, universe), min(4 * degree, universe))))
                    for _ in range(rng.randint(1, 24))
                ]
            instance = make_instance(universe, k, families)
            plan = list(hitting.resolve_plan(instance, EngineConfig(consolidation={})))
            plan[6] = rng.randint(0, k)  # full_through
            keep_all = {}
            for d, masks in instance.families.items():
                last = k - 1 if d == 1 else check_level(k, d) - 1
                if last >= 0:
                    m = len(masks)
                    keep_all[d] = (rng.randint(0, last), rng.choice((m, m + 3, INT_MAX)))
            runs = []
            for consolidations in (keep_all, {}):
                plan[5] = consolidations
                calls = []
                runs.append((calls, kern.run_hitting(*plan, calls.append, 7)))
            (got, stats), (plain, base) = runs
            assert got == plain, trial
            assert dict(stats, consolidations=0) == base, trial

    def runs(self, backends, instance, consolidation):
        """(emitted, stats) with `consolidation`, then without any."""
        return [
            run_each_backend(backends, instance, EngineConfig(consolidation=c))
            for c in (consolidation, {})
        ]

    @pytest.mark.parametrize("cap", [2, 1])
    def test_degree_two_family_at_and_over_its_cap(self, backends, cap):
        """Degree 2 holds X = {0, 2, 6, 7} and Y = {0, 3, 8, 9}, checked at
        level 2 and consolidated at level 1.  Under cell 1 both are unhit
        there: cap 2 keeps both, so the plan leaves it out and the run is
        the plain one; cap 1 keeps X only, so the check no longer cuts the
        child through cell 2."""
        instance = make_instance(
            10, 3,
            {1: [{0, 1}, {2, 3}, {4, 5}], 2: [{0, 2, 6, 7}, {0, 3, 8, 9}]},
        )
        (got, stats), (plain, base) = self.runs(backends, instance, {2: (1, cap)})
        assert plain == [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5)]
        assert base["degree_cuts"] == {2: 2}
        assert stats["consolidations"] == (0 if cap == 2 else 2)
        if cap == 2:
            assert got == plain
            assert dict(stats, consolidations=0) == base
        else:
            assert got == plain + [(1, 2, 4), (1, 2, 5)]
            assert stats["degree_cuts"] == {2: 1}

    def test_pinned_nine_by_nine_counters(self, native_required, monkeypatch):
        """search_grid at k=12, max_set_size=8 on a pinned grid: 45
        degree-1 sets under cap 128 and 140 / 509 / 1146 cliques of degrees
        2-4 under cap 1536 are not consolidated; the 1856 of degree 5 are,
        and theirs are the only consolidations counted."""
        from minclue import checker
        from minclue.grid import parse_grid
        from test_acceptance import PINNED_9X9

        runs = []

        def engine(instance, config, sink=None, stats=None):
            runs.append({})
            return enumerate_hitting_sets(instance, config, sink, runs[-1])

        monkeypatch.setattr(hitting, "kernels", native_required)
        monkeypatch.setattr(checker, "enumerate_hitting_sets", engine)
        grid = parse_grid(PINNED_9X9[0])
        checker.search_grid(grid, 12, checker.SearchConfig(max_set_size=8))
        [stats] = runs
        assert stats["nodes"] == 92670
        assert stats["degree_cuts"] == {2: 1670, 3: 2497, 4: 1645, 5: 66283}
        assert stats["consolidations"] == 683
        assert stats["selection_cuts"] == 0
        assert stats["emitted"] == 3


class TestEarlyChildCut:
    """A child that its degree checks cut is counted in its parent; one
    whose degree-1 row is all hit, or that sits at level k, is not cut."""

    def test_all_hit_at_the_check_level_falls_through(self, backends):
        # k = 4 checks degree 2 at level 3, where drawing 1, 3 or 5 from the
        # three pairs has hit every degree-1 set: those nodes free-fill
        # though {6, 7} is unhit; only the branch 0, 2, 4 is cut
        instance = make_instance(
            10, 4, {1: [{0, 1}, {2, 3}, {4, 5}, {1, 3, 5, 8}], 2: [{6, 7}]}
        )
        got, stats = run_each_backend(backends, instance)
        assert stats["degree_cuts"] == {2: 1}
        oracle = brute_force_hitting_sets(instance)
        assert sorted(got) == [s for s in oracle if not {0, 2, 4} <= set(s)]
        unpruned, base = run_each_backend(
            backends, HittingInstance(10, 4, {1: instance.degree_one()})
        )
        assert sorted(unpruned) == oracle
        assert stats["nodes"] == base["nodes"] - 4  # the cut node's 4 children

    def test_check_at_level_k_never_cuts(self, backends):
        # a hand-made plan that checks degree 2 at level k = 2: a node there
        # emits when every degree-1 set is hit and stops otherwise, uncut
        instance = make_instance(8, 2, {1: [{0, 1}, {2, 3}, {0, 2, 4}], 2: [{6, 7}]})
        plan = list(hitting.resolve_plan(instance, EngineConfig()))
        plan[4] = {2: 2}  # check_levels
        got, stats = run_plan_each_backend(backends, plan)
        assert stats["degree_cuts"] == {2: 0}
        assert sorted(got) == brute_force_hitting_sets(instance)
        assert stats["nodes"] == 7

    def test_check_at_the_root(self, backends):
        # degree 3 > k is checked at level 0, which the root runs itself
        instance = make_instance(8, 2, {1: [{0, 1}], 3: [{2, 3, 4}]})
        got, stats = run_each_backend(backends, instance)
        assert got == []
        assert stats["nodes"] == 1
        assert stats["degree_cuts"] == {3: 1}

    def test_checks_around_the_consolidation_level(self, backends):
        """Hand-made plans that consolidate degree 2 before its check level
        (3) and at it; every backend must agree on emission and stats."""
        instance = hub_instance(7, 150, k=4)
        for trigger in (1, 2, 3):
            plan = list(hitting.resolve_plan(instance, EngineConfig()))
            plan[5] = {1: (1, 90), 2: (trigger, 80)}  # consolidations
            got, stats = run_plan_each_backend(backends, plan)
            assert stats["degree_cuts"] == {2: 1}
            assert stats["nodes"] == 9 and stats["emitted"] == 97


class TestBackendParityOnEngine:
    def test_identical_emission_and_order(self, backends):
        if "native" not in backends:
            pytest.skip("single backend")
        from minclue.hitting import resolve_plan

        rng = random.Random(616)
        py, native = backends["python"], backends["native"]
        for _ in range(25):
            full = random_instance(rng, max_universe=30, max_k=5, max_sets=16)
            config = EngineConfig(
                consolidation={1: (max(1, full.k - 1), 32), 2: (1, 32)},
            )
            for flags in product((True, False), repeat=3):
                plan = resolve_plan(*without_speed_ups(full, config, *flags))
                assert_engine_parity(py, native, plan)

    def test_degree_cut_above_level_63(self, backends):
        """k = 66: the degree-2 check runs at level 65 and cuts the branch
        that drew cell 64 instead of 100."""
        if "native" not in backends:
            pytest.skip("single backend")
        from minclue.hitting import resolve_plan

        singletons = [{c} for c in range(64)]
        instance = make_instance(
            128, 66, {1: singletons + [{64, 100}, {65, 101}], 2: [{100, 101}],
                      3: [{5, 70}]}
        )
        checks_only = EngineConfig(consolidation={}, full_through=0)
        for config in (EngineConfig(), checks_only):
            stats = assert_engine_parity(
                backends["python"], backends["native"], resolve_plan(instance, config)
            )
            assert stats["degree_cuts"] == {2: 1, 3: 0}
            assert stats["nodes"] == 69 and stats["emitted"] == 2

    def test_sixty_fifth_set_decides_the_entry_check(self, backends):
        """Drawing cell 0 hits the 64 sets of the first row word and leaves
        only the 65th set, alone in the partial last word, unhit: the node
        must draw from it rather than free-fill."""
        instance = make_instance(
            128, 2, {1: [{0, c} for c in range(1, 65)] + [{100, 101}]}
        )
        got, _ = run_each_backend(backends, instance)
        assert sorted(got) == brute_force_hitting_sets(instance) == [(0, 100), (0, 101)]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_wide_instances(self, backends, data):
        """Universes beyond 64 cells, more than 64 sets in one degree, and
        a consolidation at every level-1 node."""
        if "native" not in backends:
            pytest.skip("single backend")
        from minclue.hitting import resolve_plan

        instance, config = data.draw(wide_instances())
        stats = assert_engine_parity(
            backends["python"], backends["native"], resolve_plan(instance, config)
        )
        assert stats["consolidations"] > 0


def assert_engine_parity(py, native, plan):
    """Both backends emit the same sets in the same order and return equal
    stats dicts; returns the stats."""
    a, b = [], []
    k = plan[1]
    stats = py.run_hitting(*plan, per_candidate(k, a.append), 1)
    assert native.run_hitting(*plan, per_candidate(k, b.append), 1) == stats
    assert a == b
    return stats


@st.composite
def wide_instances(draw):
    """A degree-1 family of 65..140 sets over 65..128 cells, k disjoint
    ones among them (so every hitting set needs all k draws and emission
    stays small), degree-2 unions of disjoint pairs, and a config that
    consolidates degree 1 at level 1 (k >= 3 leaves no check there).

    Most other sets are small and contain one of k hub cells, one per
    disjoint set, so that the first 64 slots of a row can fill up while
    later, larger sets stay unhit."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    universe = draw(st.integers(65, 128))
    k = draw(st.integers(3, 5))
    hub_share = draw(st.sampled_from([0.0, 0.9, 1.0]))
    cells = rng.sample(range(universe - 1), 6 * k)
    hubs = cells[::6]
    deg1 = [set(cells[6 * i : 6 * i + rng.randint(2, 6)]) for i in range(k)]
    deg1[0].add(universe - 1)
    for _ in range(draw(st.integers(65 - k, 140 - k))):
        if rng.random() < hub_share:
            extra = {rng.choice(hubs), *rng.sample(range(universe), rng.randint(1, 4))}
        else:  # larger, so sorted behind the hub sets
            extra = set(rng.sample(range(universe), rng.randint(6, 7)))
        deg1.append(extra)
    deg2 = []
    for _ in range(draw(st.integers(0, 150))):
        a, b = rng.sample(deg1, 2)
        if not a & b:
            deg2.append(a | b)
    families = {1: deg1, 2: deg2} if deg2 else {1: deg1}
    # a cap below the family size, which resolve_plan keeps
    consolidation = {1: (1, draw(st.integers(1, len(deg1) - 1)))}
    if k >= 4:
        consolidation[2] = (draw(st.integers(1, k - 2)), draw(st.integers(1, 150)))
    config = EngineConfig(
        consolidation=consolidation, full_through=draw(st.integers(0, k))
    )
    # degree checks and effective sizes on or off; consolidation stays on
    return without_speed_ups(
        make_instance(universe, k, families), config,
        draw(st.booleans()), True, draw(st.booleans()),
    )
