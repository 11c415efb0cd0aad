import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from samgog import data
from samgog import degree_alloc as da


class TestLargestRemainder:
    def test_exact_conservation_and_bracketing(self):
        shares = np.array([3.4, 2.2, 1.4])  # sums to 7
        out = da.largest_remainder(shares, 7)
        assert out.sum() == 7
        assert np.all(out >= np.floor(shares)) and np.all(out <= np.ceil(shares))

    def test_ties_go_to_lowest_index(self):
        out = da.largest_remainder(np.array([1.5, 1.5, 1.0]), 4)
        assert out.tolist() == [2, 1, 1]

    @given(
        st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=12),
        st.integers(0, 10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_conservation_property(self, raw, seed):
        shares = np.array(raw)
        total = int(np.floor(shares.sum()))
        scaled = shares * (total / shares.sum()) if shares.sum() > 0 else shares
        out = da.largest_remainder(scaled, total)
        assert out.sum() == total
        assert np.all(out >= 0)
        assert np.all(np.abs(out - scaled) < 1.0 + 1e-9)


class TestLabeledPrioritySplit:
    def test_symmetric_groups_equal_split(self):
        assert da.labeled_priority_split(100, 10, 10, 1.0) == (50, 50)

    def test_ratio_four_gives_eighty_twenty(self):
        # per-capita ratio 4 with equal group sizes: share 4 / (4 + 1)
        assert da.labeled_priority_split(100, 10, 10, 4.0) == (80, 20)

    def test_zero_surplus(self):
        assert da.labeled_priority_split(0, 3, 7, 5.0) == (0, 0)

    def test_conserves_total_exactly(self):
        for delta in (1, 7, 99, 1234):
            l, u = da.labeled_priority_split(delta, 13, 29, 5.0)
            assert l + u == delta


class TestClassGroupSplit:
    def test_three_to_one_totals(self):
        out = da.class_group_split(40, np.array([30, 10]), 3.0)
        assert out.tolist() == [30, 10]

    def test_ratio_one_equal_halves(self):
        out = da.class_group_split(40, np.array([30, 10]), 1.0)
        assert out.tolist() == [20, 20]

    def test_hand_case_ninety_ten(self):
        # rho2 = 9 over counts (90, 10): majority total 90 (one extra per
        # node), minority total 10 (one per node)
        out = da.class_group_split(100, np.array([90, 10]), 9.0)
        assert out.tolist() == [90, 10]

    def test_tied_counts_force_ratio_one(self):
        out = da.class_group_split(30, np.array([25, 25]), 9.0)
        assert out.tolist() == [15, 15]

    def test_absent_class_gets_nothing(self):
        out = da.class_group_split(20, np.array([10, 0, 5]), 3.0)
        assert out[1] == 0
        assert out.sum() == 20


class TestSizeWindowWeights:
    def test_all_train_sizes_inside_window(self):
        w = da.size_window_weights(np.array([12]), np.array([10, 12, 14]), 2)
        assert w.tolist() == [3.0]

    def test_empty_window_uniform_fallback(self):
        w = da.size_window_weights(np.array([100, 200]), np.array([10, 12, 14]), 2)
        assert w.tolist() == [1.0, 1.0]

    def test_interval_membership_by_hand(self):
        w = da.size_window_weights(np.array([11]), np.array([5, 10, 15, 20]), 4)
        assert w.tolist() == [2.0]  # {10, 15}

    def test_window_is_inclusive(self):
        w = da.size_window_weights(np.array([10]), np.array([8, 12]), 2)
        assert w.tolist() == [2.0]


def fixture_dataset_and_split():
    """10 graphs; train = {0, 1, 2, 3} with labels (0, 0, 0, 1); sizes chosen
    so the rule-3 windows count (2, 1, 1, 0, 1, 0) at r = 2."""
    sizes = [10, 12, 20, 30, 11, 13, 29, 50, 9, 100]
    labels = [0, 0, 0, 1, 0, 1, 0, 1, 0, 1]
    ds = data.make_path_graph_dataset(sizes, labels=labels)
    split = data.SplitSpec(
        train_idx=(0, 1, 2, 3), val_idx=(4, 5), test_idx=(6, 7, 8, 9)
    )
    return ds, split


class TestAllocateDegrees:
    def test_no_surplus_floors_everything(self):
        ds, split = fixture_dataset_and_split()
        config = da.AllocConfig(d_bar=3, k_min=3, k_max=10)
        alloc = da.allocate_degrees(split, ds, config)
        assert np.all(alloc.k == 3)
        assert alloc.total == 30

    def test_full_symmetry_gives_average(self):
        ds = data.make_path_graph_dataset([5, 5, 5, 5], labels=[0, 0, 1, 1])
        split = data.SplitSpec(train_idx=(0, 1), val_idx=(2,), test_idx=(3,))
        # rho1 = 1 and tied class counts spread the surplus evenly
        config = da.AllocConfig(d_bar=5, k_min=3, k_max=100, rho1=1.0, rho2=3.0)
        alloc = da.allocate_degrees(split, ds, config)
        assert alloc.k.tolist() == [5, 5, 5, 5]

    def test_hand_computed_ten_node_fixture(self):
        ds, split = fixture_dataset_and_split()
        config = da.AllocConfig(
            d_bar=5, k_min=3, k_max=8, rho1=4.0, rho2=3.0, window_r=2
        )
        alloc = da.allocate_degrees(split, ds, config)
        # frozen hand computation: surplus 20 -> rule 1 (15, 5); rule 2 totals
        # (11, 4) -> class 0 extras (4, 4, 3), class 1 extra 4; rule 3
        # weights (2, 1, 1, 0, 1, 0) give the unlabeled extras directly
        assert alloc.k.tolist() == [7, 7, 6, 7, 5, 4, 4, 3, 4, 3]
        assert alloc.total == 50

    def test_clamp_redistributes_to_highest_entitlement(self):
        ds, split = fixture_dataset_and_split()
        config = da.AllocConfig(
            d_bar=5, k_min=3, k_max=6, rho1=4.0, rho2=3.0, window_r=2
        )
        alloc = da.allocate_degrees(split, ds, config)
        # nodes 0, 1, 3 clamp from 7 to 6; the three excess degrees go to
        # node 4 (entitlement 5) then node 5 (entitlement 4, lowest index)
        assert alloc.k.tolist() == [6, 6, 6, 6, 6, 6, 4, 3, 4, 3]
        assert alloc.k.sum() == 50

    def test_fully_labeled_dataset_allocates(self):
        ds = data.make_path_graph_dataset([4] * 6, labels=[0, 1] * 3)
        split = data.SplitSpec(train_idx=tuple(range(6)), val_idx=(), test_idx=())
        config = da.AllocConfig(d_bar=4, k_min=2, k_max=10)
        alloc = da.allocate_degrees(split, ds, config)
        assert alloc.k.sum() == 24

    def test_infeasible_budget_rejected(self):
        ds, split = fixture_dataset_and_split()
        with pytest.raises(da.InfeasibleAllocationError):
            da.AllocConfig(d_bar=12, k_min=3, k_max=10)
        config = da.AllocConfig(d_bar=5, k_min=5, k_max=5)
        alloc = da.allocate_degrees(split, ds, config)
        assert np.all(alloc.k == 5)

    def test_determinism(self):
        ds, split = fixture_dataset_and_split()
        config = da.AllocConfig(d_bar=6, k_min=3, k_max=9, rho1=5.0, rho2=3.0)
        a = da.allocate_degrees(split, ds, config)
        b = da.allocate_degrees(split, ds, config)
        assert np.array_equal(a.k, b.k)

    @given(
        n=st.integers(min_value=4, max_value=40),
        d_extra=st.floats(min_value=0.0, max_value=6.0),
        k_min=st.integers(min_value=0, max_value=4),
        span=st.integers(min_value=0, max_value=8),
        rho1=st.floats(min_value=1.0, max_value=9.0),
        rho2=st.floats(min_value=1.0, max_value=9.0),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=120, deadline=None)
    def test_conservation_and_bounds_property(
        self, n, d_extra, k_min, span, rho1, rho2, seed
    ):
        rng = np.random.default_rng(seed)
        k_max = k_min + span
        d_bar = min(k_min + d_extra, float(k_max))
        sizes = [int(s) for s in rng.integers(3, 40, size=n)]
        labels = [int(x) for x in rng.integers(0, 2, size=n)]
        labels[0], labels[1] = 0, 1  # both classes in train
        ds = data.make_path_graph_dataset(sizes, labels=labels)
        n_train = int(rng.integers(2, n))
        train = tuple(int(i) for i in rng.choice(n, size=n_train, replace=False))
        if 0 not in train:
            train = train[:-1] + (0,)
        if 1 not in train:
            train = train[:-2] + (1,) + train[-1:]
        rest = tuple(sorted(set(range(n)) - set(train)))
        split = data.SplitSpec(train_idx=tuple(sorted(set(train))), val_idx=(),
                               test_idx=rest)
        config = da.AllocConfig(
            d_bar=d_bar, k_min=k_min, k_max=k_max, rho1=rho1, rho2=rho2,
            window_r=int(rng.integers(0, 10)),
        )
        alloc = da.allocate_degrees(split, ds, config)
        assert alloc.k.sum() == da.target_total_degree(n, d_bar)
        assert np.all(alloc.k >= k_min) and np.all(alloc.k <= k_max)

    @staticmethod
    def clamped_by_fixpoint(split, ds, config):
        """The allocation by a clamp-and-redistribute loop run to its
        fixpoint, one node at a time, from the unclamped allocation and the
        real-valued entitlements recomputed from the stage functions."""
        n = len(ds)
        k = da.allocate_degrees(split, ds, replace(config, k_max=10**9)).k.copy()
        labeled = np.array(sorted(split.train_idx))
        unlabeled = np.array(sorted(set(range(n)) - set(split.train_idx)), dtype=int)
        entitlement = np.full(n, float(config.k_min))
        surplus = da.target_total_degree(n, config.d_bar) - n * config.k_min
        if surplus > 0:
            delta_l, delta_u = (surplus, 0) if unlabeled.size == 0 else (
                da.labeled_priority_split(surplus, labeled.size, unlabeled.size, config.rho1)
            )
            labels, sizes = ds.labels(), ds.sizes()
            per_class = da.class_group_split(
                delta_l, np.bincount(labels[labeled], minlength=ds.num_classes),
                config.rho2,
            )
            for c in range(ds.num_classes):
                members = labeled[labels[labeled] == c]
                if members.size:
                    entitlement[members] += per_class[c] / members.size
            if unlabeled.size:
                w = da.size_window_weights(sizes[unlabeled], sizes[labeled], config.window_r)
                entitlement[unlabeled] += delta_u * w / w.sum()
        while True:
            over = k > config.k_max
            excess = int((k[over] - config.k_max).sum())
            if excess == 0:
                return k
            k[over] = config.k_max
            open_nodes = np.nonzero(k < config.k_max)[0]
            for i in open_nodes[np.lexsort((open_nodes, -entitlement[open_nodes]))]:
                give = min(excess, config.k_max - int(k[i]))
                k[i] += give
                excess -= give
            assert excess == 0

    @given(
        n=st.integers(min_value=4, max_value=40),
        d_extra=st.floats(min_value=0.5, max_value=6.0),
        k_min=st.integers(min_value=0, max_value=4),
        cap=st.floats(min_value=0.0, max_value=1.0),
        rho1=st.floats(min_value=1.0, max_value=9.0),
        rho2=st.floats(min_value=1.0, max_value=9.0),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_clamp_matches_fixpoint_oracle(
        self, n, d_extra, k_min, cap, rho1, rho2, seed
    ):
        rng = np.random.default_rng(seed)
        sizes = [int(s) for s in rng.integers(3, 40, size=n)]
        labels = [0, 1] + [int(x) for x in rng.integers(0, 2, size=n - 2)]
        ds = data.make_path_graph_dataset(sizes, labels=labels)
        train = {0, 1} | {int(i) for i in rng.choice(n, size=int(rng.integers(0, n - 1)))}
        split = data.SplitSpec(train_idx=tuple(sorted(train)), val_idx=(),
                               test_idx=tuple(sorted(set(range(n)) - train)))
        d_bar = k_min + d_extra
        unclamped = da.AllocConfig(
            d_bar=d_bar, k_min=k_min, k_max=10**9, rho1=rho1, rho2=rho2,
            window_r=int(rng.integers(0, 10)),
        )
        top = int(da.allocate_degrees(split, ds, unclamped).k.max())
        lowest = math.ceil(d_bar)
        assume(lowest < top)
        # a k_max below the largest unclamped degree, so the clamp acts
        config = replace(unclamped, k_max=lowest + int(cap * (top - 1 - lowest)))
        alloc = da.allocate_degrees(split, ds, config)
        assert alloc.k.tolist() == self.clamped_by_fixpoint(split, ds, config).tolist()

    def test_within_group_ordering(self):
        ds, split = fixture_dataset_and_split()
        config = da.AllocConfig(
            d_bar=5, k_min=3, k_max=8, rho1=4.0, rho2=3.0, window_r=2
        )
        alloc = da.allocate_degrees(split, ds, config)
        labels = ds.labels()
        train = list(split.train_idx)
        unl = sorted(set(range(10)) - set(train))
        # labeled nodes outrank unlabeled ones when rho1 > 1
        assert min(alloc.k[train]) >= max(alloc.k[unl])
        # majority per-node degree >= minority per-node degree when
        # rho2 * n_minor >= n_major (here 3 * 1 >= 3)
        maj = [i for i in train if labels[i] == 0]
        mino = [i for i in train if labels[i] == 1]
        assert alloc.k[maj].mean() >= alloc.k[mino].mean() - 1.0
        # unlabeled degrees follow the rule-3 weight ordering
        weights = {4: 2, 5: 1, 6: 1, 7: 0, 8: 1, 9: 0}
        for a in unl:
            for b in unl:
                if weights[a] > weights[b]:
                    assert alloc.k[a] >= alloc.k[b]


class TestOracleAllocator:
    def test_two_node_enumeration(self):
        config = da.AllocConfig(d_bar=2, k_min=1, k_max=3)
        alloc = da.oracle_optimal_allocation(np.array([0.9, 0.1]), config)
        assert alloc.k.tolist() == [3, 1]

    def test_constant_prob_ties_brute_force(self):
        config = da.AllocConfig(d_bar=3, k_min=1, k_max=5)
        prob = np.full(4, 0.4)
        greedy = da.greedy_allocation(prob, config)
        brute = da.oracle_optimal_allocation(prob, config)
        assert da.allocation_objective(greedy.k, prob) == pytest.approx(
            da.allocation_objective(brute.k, prob), abs=1e-12
        )
        # stable greedy saturates in index order on ties
        assert greedy.k.tolist() == [5, 5, 1, 1]

    def test_decreasing_prob_saturates_in_order(self):
        config = da.AllocConfig(d_bar=4, k_min=1, k_max=9)
        prob = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
        greedy = da.greedy_allocation(prob, config)
        brute = da.oracle_optimal_allocation(prob, config)
        assert greedy.k.tolist() == [9, 8, 1, 1, 1]
        assert da.allocation_objective(greedy.k, prob) == pytest.approx(
            da.allocation_objective(brute.k, prob), abs=1e-12
        )

    @given(
        n=st.integers(min_value=2, max_value=6),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_equals_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        prob = rng.random(n)
        k_min = int(rng.integers(0, 3))
        k_max = k_min + int(rng.integers(1, 5))
        d_bar = float(rng.uniform(k_min, k_max))
        config = da.AllocConfig(d_bar=d_bar, k_min=k_min, k_max=k_max)
        greedy = da.greedy_allocation(prob, config)
        brute = da.oracle_optimal_allocation(prob, config)
        assert da.allocation_objective(greedy.k, prob) == pytest.approx(
            da.allocation_objective(brute.k, prob), abs=1e-10
        )


@pytest.mark.parametrize(
    "k, match",
    [
        (np.array([2, -1, 3, -4]), "node 1 has negative degree -1"),
        (np.array([2.0, 1.5, 0.5]), "must be integers: node 1 has k = 1.5"),
        (np.array([2.0, 1.0]), "must be integers: dtype float64"),
        (np.array([True, False]), "must be integers: node 0"),
        (np.array([[1, 2], [3, 4]]), r"1-D numpy array, got ndarray of shape \(2, 2\)"),
        ([1, 2], "1-D numpy array, got list"),
    ],
)
def test_allocation_rejects_bad_k_by_name(k, match):
    with pytest.raises(da.InfeasibleAllocationError, match=match):
        da.DegreeAllocation(k=k, total=3)


@pytest.mark.parametrize(
    "bounds", [dict(k_min=2.5), dict(k_max=7.5), dict(d_bar=5.9, k_max=5.9)]
)
def test_alloc_config_rejects_non_integer_bounds(bounds):
    with pytest.raises(da.InfeasibleAllocationError, match="k_min.*k_max"):
        da.AllocConfig(**{"d_bar": 5.0, "k_min": 3, "k_max": 100, **bounds})


def test_alloc_config_accepts_numpy_integer_bounds():
    config = da.AllocConfig(d_bar=5.0, k_min=np.int64(3), k_max=np.int64(8))
    assert (config.k_min, config.k_max) == (3, 8)


@given(
    k_min=st.integers(0, 10**9),
    width=st.integers(0, 10**9),
    n=st.integers(0, 10**4),
    choice=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_integer_bounds_keep_the_budget_feasible(k_min, width, n, choice):
    # the allocators rely on AllocConfig's k_min <= d_bar <= k_max alone
    k_max = k_min + width
    d_bar = choice.draw(st.floats(min_value=k_min, max_value=k_max))
    assert n * k_min <= da.target_total_degree(n, d_bar) <= n * k_max


def test_dump_allocation(tmp_path):
    alloc = da.DegreeAllocation(k=np.array([2, 3, 4]), total=9)
    path = tmp_path / "alloc.txt"
    da.dump_allocation(alloc, str(path))
    lines = path.read_text().splitlines()
    assert lines == ["0 2", "1 3", "2 4", "total 9"]
