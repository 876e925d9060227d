import json
import tracemalloc

import numpy as np
import pytest

from coupledmil import bagdata
from coupledmil.bagdata import (
    Bag,
    Dataset,
    DatasetParseError,
    SyntheticSpec,
    features_matrix,
    generate_synthetic,
    load_dataset,
    partition_pseudobags,
    save_dataset,
    split_dataset,
)
from coupledmil.metrics import roc_auc
from oracles import datasets_equal


def make_bag(bag_id="b0", k=5, d=3, seed=0, label=(1.0, 0.0)):
    rng = np.random.default_rng(seed)
    return Bag(
        id=bag_id,
        features=rng.standard_normal((k, d)),
        label=np.array(label),
    )


class TestBagInvariants:
    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError, match="no instances"):
            Bag(id="x", features=np.empty((0, 3)), label=np.array([1.0, 0.0]))

    def test_label_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            make_bag(label=(0.5, 0.4))

    def test_label_entries_in_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            make_bag(label=(1.5, -0.5))

    @pytest.mark.parametrize("features", [np.zeros(3), np.zeros((2, 2, 2)), 1.0])
    def test_features_must_be_a_matrix(self, features):
        with pytest.raises(ValueError, match="K x d"):
            Bag(id="x", features=features, label=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite features"):
            Bag(id="x", features=np.array([[0.0, bad]]), label=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="outside"):
            Bag(id="x", features=np.zeros((1, 2)), label=np.array([bad, 0.0]))


class TestSyntheticGenerator:
    def test_rho_one_makes_all_instances_positive(self):
        spec = SyntheticSpec(num_bags=1, instances_per_bag=5, d_raw=4,
                             rho=1.0, positive_fraction=1.0, seed=3)
        ds = generate_synthetic(spec)
        assert ds.bags[0].latent_positive.all()

    def test_determinism(self):
        spec = SyntheticSpec(num_bags=12, instances_per_bag=(3, 9), d_raw=5, seed=42)
        assert datasets_equal(generate_synthetic(spec), generate_synthetic(spec))

    def test_zero_delta_instances_indistinguishable(self):
        # with delta=0 the blobs coincide; projecting on the (degenerate)
        # separation direction must score at chance level
        spec = SyntheticSpec(num_bags=200, instances_per_bag=50, d_raw=8,
                             rho=0.5, delta=0.0, noise=1.0, seed=10)
        ds = generate_synthetic(spec)
        scores, labels = [], []
        for bag in ds.bags:
            scores.extend(bag.features.sum(axis=1))
            labels.extend(bag.latent_positive.astype(int))
        assert len(scores) == 10_000
        assert abs(roc_auc(scores, labels) - 0.5) <= 0.05

    def test_mil_label_consistency(self):
        spec = SyntheticSpec(num_bags=60, instances_per_bag=(1, 12), d_raw=4,
                             rho=0.3, seed=6)
        ds = generate_synthetic(spec)
        pos_bags = 0
        for bag in ds.bags:
            has_positive = bool(bag.latent_positive.any())
            assert bool(np.argmax(bag.label)) == has_positive
            pos_bags += has_positive
        assert 0 < pos_bags < len(ds.bags)

    def test_positive_bag_instance_count(self):
        spec = SyntheticSpec(num_bags=4, instances_per_bag=50, d_raw=4,
                             rho=0.1, positive_fraction=1.0, seed=1)
        for bag in generate_synthetic(spec).bags:
            assert bag.latent_positive.sum() == 5

    def test_matches_per_instance_reference(self):
        # one K x d normal draw per bag reads the stream exactly as K draws
        # of d did, so generated files are unchanged
        spec = SyntheticSpec(num_bags=6, instances_per_bag=(2, 9), d_raw=5,
                             rho=0.3, delta=1.6, noise=0.7, seed=4)
        rng = np.random.default_rng(spec.seed)
        half = spec.delta / (2.0 * np.sqrt(spec.d_raw))
        for b, bag in enumerate(generate_synthetic(spec).bags):
            k = int(rng.integers(2, 10))
            flags = np.zeros(k, dtype=bool)
            flags[:int(np.ceil(spec.rho * k)) if b < 3 else 0] = True
            rng.shuffle(flags)
            rows = [np.full(5, half if f else -half) + spec.noise * rng.standard_normal(5)
                    for f in flags]
            want = [[float(f"{v:.9g}") for v in row] for row in rows]
            assert np.array_equal(bag.features, np.array(want))
            assert np.array_equal(bag.latent_positive, flags)

    @pytest.mark.parametrize("field,value", [
        ("rho", 0.0), ("rho", 1.5), ("delta", -1.0), ("num_bags", 0),
        ("positive_fraction", 1.2), ("noise", -0.1), ("instances_per_bag", 0),
    ])
    def test_invalid_spec_fields(self, field, value):
        kwargs = dict(num_bags=5, instances_per_bag=4, d_raw=3, seed=0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)


class TestPartition:
    def test_balanced_sizes(self):
        bag = make_bag(k=10)
        groups = partition_pseudobags(bag, 4, np.random.default_rng(0))
        assert [len(g) for g in groups] == [3, 3, 2, 2]

    def test_single_group(self):
        bag = make_bag(k=7)
        groups = partition_pseudobags(bag, 1, np.random.default_rng(0))
        assert [g.tolist() for g in groups] == [list(range(7))]

    def test_small_bag_flags_empty_groups(self):
        bag = make_bag(k=3)
        groups = partition_pseudobags(bag, 4, np.random.default_rng(5))
        assert [len(g) for g in groups] == [1, 1, 1, 0]

    def test_zero_groups_rejected(self):
        with pytest.raises(ValueError):
            partition_pseudobags(make_bag(), 0, np.random.default_rng(0))

    def test_disjoint_cover_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            k = int(rng.integers(1, 41))
            n = int(rng.integers(1, 9))
            groups = partition_pseudobags(make_bag(k=k), n, rng)
            flat = [i for g in groups for i in g]
            assert sorted(flat) == list(range(k))
            sizes = [len(g) for g in groups]
            assert max(sizes) - min(sizes) <= 1

    def test_matches_reference_loop(self):
        # the divmod loop the index-array split replaced: same groups for
        # the same draws, so augmentation output is unchanged
        def reference(k, n, rng):
            order = rng.permutation(k)
            base, extra = divmod(k, n)
            groups, start = [], 0
            for g in range(n):
                size = base + (1 if g < extra else 0)
                groups.append(sorted(int(i) for i in order[start:start + size]))
                start += size
            return groups

        for seed in range(200):
            k, n = 1 + seed % 23, 1 + seed % 9
            got = partition_pseudobags(make_bag(k=k), n, np.random.default_rng(seed))
            want = reference(k, n, np.random.default_rng(seed))
            assert [g.tolist() for g in got] == want


class TestRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        spec = SyntheticSpec(num_bags=15, instances_per_bag=(2, 7), d_raw=6, seed=9)
        ds = generate_synthetic(spec)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        assert datasets_equal(load_dataset(path), ds)

    def test_double_round_trip_bytes(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(num_bags=5, instances_per_bag=3,
                                              d_raw=4, seed=2))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(num_bags=4, instances_per_bag=3,
                                              d_raw=4, seed=2))
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DatasetParseError, match="truncated"):
            load_dataset(path)

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text(
            json.dumps({"d_raw": 2, "C": 2, "count": 1}) + "\n" + "{not json\n"
        )
        with pytest.raises(DatasetParseError, match="line 2"):
            load_dataset(path)

    def test_feature_length_mismatch(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        rec = {"id": "b", "label": [1.0, 0.0], "features": [[0.1, 0.2, 0.3]]}
        path.write_text(
            json.dumps({"d_raw": 2, "C": 2, "count": 1}) + "\n" + json.dumps(rec) + "\n"
        )
        with pytest.raises(DatasetParseError,
                           match=r"^line 2: feature length 3 != d_raw=2$") as info:
            load_dataset(path)
        assert info.value.line == 2

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        save_dataset(Dataset(bags=[], d_raw=3, num_classes=2), path)
        loaded = load_dataset(path)
        assert len(loaded.bags) == 0
        assert loaded.d_raw == 3

    def test_nine_significant_digits_in_file(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(num_bags=2, instances_per_bag=2,
                                              d_raw=3, seed=7))
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        for line in path.read_text().splitlines()[1:]:
            for row in json.loads(line)["features"]:
                for v in row:
                    assert float(f"{v:.9g}") == v


def _dataset_file(tmp_path, **spec):
    path = tmp_path / "ds.jsonl"
    save_dataset(generate_synthetic(SyntheticSpec(**spec)), path)
    return path


class TestLoadErrors:
    """Each fault is reported with its line, and of several faults the first
    in file order."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_bytes(b"")
        with pytest.raises(DatasetParseError, match="line 1: missing manifest"):
            load_dataset(path)

    def test_trailing_data(self, tmp_path):
        path = _dataset_file(tmp_path, num_bags=3, instances_per_bag=2, d_raw=2, seed=1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not even json\n{}\n")
        with pytest.raises(DatasetParseError, match="line 5: trailing data"):
            load_dataset(path)

    def test_invalid_utf8_reports_its_line(self, tmp_path):
        path = _dataset_file(tmp_path, num_bags=4, instances_per_bag=2, d_raw=2, seed=1)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b'"bag', b'"\xff\xfebag')
        path.write_bytes(b"".join(lines))
        with pytest.raises(DatasetParseError, match="line 4: not UTF-8"):
            load_dataset(path)

    def test_first_fault_in_file_order_wins(self, tmp_path):
        # a bad record on line 2, invalid UTF-8 on line 4 and one record too
        # few: line 2 is reported
        path = _dataset_file(tmp_path, num_bags=4, instances_per_bag=2, d_raw=2, seed=1)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"[]\n"
        lines[3] = b"\xff" + lines[3]
        path.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(DatasetParseError, match="line 2: bad record"):
            load_dataset(path)

    def test_crlf_file_loads_equal(self, tmp_path):
        path = _dataset_file(tmp_path, num_bags=5, instances_per_bag=(1, 4), d_raw=3,
                             seed=4)
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert datasets_equal(load_dataset(crlf), load_dataset(path))


def test_load_holds_one_line_at_a_time(tmp_path):
    # beyond what the dataset keeps, the loader holds its read buffer and one
    # record's temporaries; a whole read held the bytes, the decoded text and
    # its list of lines at once, about three times the file
    path = _dataset_file(tmp_path, num_bags=150, instances_per_bag=100, d_raw=16, seed=5)
    size = path.stat().st_size
    assert size > 3_000_000
    tracemalloc.start()
    try:
        dataset = load_dataset(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 150
    assert peak - retained < bagdata._READ_BUFFER + size / 4


class TestSplit:
    def make_dataset(self, pos=10, neg=10):
        bags = [make_bag(f"p{i}", label=(0.0, 1.0), seed=i) for i in range(pos)]
        bags += [make_bag(f"n{i}", label=(1.0, 0.0), seed=100 + i) for i in range(neg)]
        return Dataset(bags=bags, d_raw=3, num_classes=2)

    def test_stratified_counts(self):
        train, val, test = split_dataset(self.make_dataset(), (0.7, 0.1, 0.2), seed=0)
        for part, expect in ((train, 7), (val, 1), (test, 2)):
            labels = [int(np.argmax(b.label)) for b in part.bags]
            assert labels.count(0) == expect and labels.count(1) == expect

    def test_all_in_train(self):
        train, val, test = split_dataset(self.make_dataset(), (1.0, 0.0, 0.0), seed=0)
        assert len(train.bags) == 20 and not val.bags and not test.bags

    def test_deterministic(self):
        ds = self.make_dataset()
        a = split_dataset(ds, (0.7, 0.1, 0.2), seed=5)
        b = split_dataset(ds, (0.7, 0.1, 0.2), seed=5)
        for x, y in zip(a, b):
            assert [bag.id for bag in x.bags] == [bag.id for bag in y.bags]

    def test_disjoint_union(self):
        ds = self.make_dataset(7, 9)
        parts = split_dataset(ds, (0.5, 0.25, 0.25), seed=3)
        ids = [bag.id for part in parts for bag in part.bags]
        assert sorted(ids) == sorted(bag.id for bag in ds.bags)

    def test_small_stratum_warns(self):
        ds = self.make_dataset(pos=1, neg=10)
        with pytest.warns(UserWarning, match="best-effort"):
            split_dataset(ds, (0.7, 0.1, 0.2), seed=0)

    def test_bad_fractions(self):
        ds = self.make_dataset()
        with pytest.raises(ValueError):
            split_dataset(ds, (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, (-0.1, 0.6, 0.5), seed=0)


def test_features_matrix_shape():
    bag = make_bag(k=4, d=6)
    assert features_matrix(bag).shape == (4, 6)
