"""Frozen reference release layers, and the shipped ones checked against them.

The references keep the original per-pair code: ``reference_pair_disjoint``
walks an alive mask and takes ``np.flatnonzero`` of it for every pair;
``reference_save_pairs``/``reference_load_pairs`` pack and unpack one
``struct`` record at a time; ``reference_recover_clusters`` runs a dict
union-find; ``reference_pairwise_agreement`` counts contingencies in dicts.
The shipped array versions must reproduce them exactly: the same pairs,
remainders, file bytes, component lists and agreement floats.
"""

import struct
import zlib

import numpy as np
import pytest

from samediff import (
    DataFormatError,
    EmbeddedFeatures,
    FullyLabeledDataset,
    PairDataset,
    PairingConfig,
    load_pairs,
    pair_disjoint,
    pair_exhaustive,
    pair_sampled,
    pairwise_agreement,
    recover_clusters,
    save_pairs,
    substream,
    sufficient_label,
)


def reference_pair_disjoint(ds, n_pairs, seed=0):
    rng = substream(seed, "pairing", "disjoint")
    n = len(ds)
    order = np.argsort(ds.ids, kind="stable")
    alive = np.ones(n, dtype=bool)
    anchor_cursor = 0
    a_out = np.empty(n_pairs, dtype=np.int64)
    b_out = np.empty(n_pairs, dtype=np.int64)
    t_out = np.empty(n_pairs, dtype=np.uint8)
    for k in range(n_pairs):
        while not alive[anchor_cursor]:
            anchor_cursor += 1
        anchor = anchor_cursor
        alive[anchor] = False
        remaining = np.flatnonzero(alive)
        partner = int(remaining[rng.integers(len(remaining))])
        alive[partner] = False
        pa, pb = order[anchor], order[partner]
        ya, yb = int(ds.y[pa]), int(ds.y[pb])
        ida, idb = int(ds.ids[pa]), int(ds.ids[pb])
        a_out[k], b_out[k] = min(ida, idb), max(ida, idb)
        t_out[k] = sufficient_label(ya, yb)
    survivors = order[np.flatnonzero(alive)]
    remainder = ds.subset(np.sort(survivors))
    return PairDataset(a_ids=a_out, b_ids=b_out, t=t_out, source=ds), remainder


def reference_save_pairs(pairs, path, inline=False):
    n = len(pairs)
    if inline:
        xa, xb, t = pairs.gather()
        dim = xa.shape[1]
        parts = [b"SDPF", struct.pack("<HHIQ", 1, 1, dim, n)]
        rec = struct.Struct(f"<{dim}d{dim}dB")
        for k in range(n):
            parts.append(rec.pack(*xa[k], *xb[k], int(t[k])))
    else:
        parts = [b"SDPF", struct.pack("<HHIQ", 1, 0, 0, n)]
        rec = struct.Struct("<qqB")
        for k in range(n):
            parts.append(rec.pack(int(pairs.a_ids[k]), int(pairs.b_ids[k]), int(pairs.t[k])))
    payload = b"".join(parts)
    with open(path, "wb") as f:
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload)))


def reference_load_pairs(path, source=None):
    with open(path, "rb") as f:
        blob = f.read()
    _, flags, dim, n = struct.unpack("<HHIQ", blob[4:20])
    body = blob[20:-4]
    if flags & 1:
        rec = struct.Struct(f"<{dim}d{dim}dB")
        if len(body) != n * rec.size:
            raise DataFormatError("truncated")
        xa = np.empty((n, dim))
        xb = np.empty((n, dim))
        t = np.empty(n, dtype=np.uint8)
        for k in range(n):
            vals = rec.unpack_from(body, k * rec.size)
            xa[k] = vals[:dim]
            xb[k] = vals[dim:2 * dim]
            t[k] = vals[2 * dim]
        slot_x = np.empty((2 * n, dim))
        slot_x[0::2] = xa
        slot_x[1::2] = xb
        slots = EmbeddedFeatures(ids=np.arange(2 * n, dtype=np.int64), x=slot_x)
        return PairDataset(
            a_ids=np.arange(0, 2 * n, 2, dtype=np.int64),
            b_ids=np.arange(1, 2 * n, 2, dtype=np.int64),
            t=t,
            source=slots,
        )
    rec = struct.Struct("<qqB")
    if len(body) != n * rec.size:
        raise DataFormatError("truncated")
    a = np.empty(n, dtype=np.int64)
    b = np.empty(n, dtype=np.int64)
    t = np.empty(n, dtype=np.uint8)
    for k in range(n):
        a[k], b[k], t[k] = rec.unpack_from(body, k * rec.size)
    return PairDataset(a_ids=a, b_ids=b, t=t, source=source)


class UnionFind:
    def __init__(self):
        self.parent = {}
        self.size = {}

    def add(self, item):
        if item not in self.parent:
            self.parent[item] = item
            self.size[item] = 1

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def reference_recover_clusters(pairs):
    uf = UnionFind()
    for pid in pairs.participant_ids():
        uf.add(int(pid))
    for a, b, t in zip(pairs.a_ids, pairs.b_ids, pairs.t):
        if t == 1:
            uf.union(int(a), int(b))
    groups = {}
    for pid in pairs.participant_ids():
        groups.setdefault(uf.find(int(pid)), []).append(int(pid))
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def reference_pairwise_agreement(components, true_labels):
    def pairs2(n):
        return n * (n - 1) // 2

    comp_of = {}
    for g, comp in enumerate(components):
        for pid in comp:
            comp_of[pid] = g
    ids = sorted(comp_of)
    total = len(ids) * (len(ids) - 1) // 2
    contingency, comp_sizes, class_sizes = {}, {}, {}
    for pid in ids:
        g = comp_of[pid]
        c = int(true_labels[pid])
        contingency[(g, c)] = contingency.get((g, c), 0) + 1
        comp_sizes[g] = comp_sizes.get(g, 0) + 1
        class_sizes[c] = class_sizes.get(c, 0) + 1
    both = sum(pairs2(np.int64(v)) for v in contingency.values())
    same_comp = sum(pairs2(np.int64(v)) for v in comp_sizes.values())
    same_class = sum(pairs2(np.int64(v)) for v in class_sizes.values())
    return float((both + total - same_comp - same_class + both) / total)


def random_dataset(rng, n, classes, dim=2, odd_ids=False):
    """Rows in random label order; with odd_ids, unique ids that are
    non-contiguous, partly negative and not in row order."""
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, classes, size=n)
    ids = None
    if odd_ids:
        ids = rng.choice(np.arange(-5 * n, 5 * n), size=n, replace=False)
    return FullyLabeledDataset.from_arrays(x, y, classes, ids=ids)


def assert_pairs_equal(got, want):
    for name in ("a_ids", "b_ids", "t"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


class TestDisjointOracle:
    def test_pairs_and_remainder_bitwise_equal(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(3, 300))
            ds = random_dataset(rng, n, int(rng.integers(1, 6)), odd_ids=trial % 2 == 1)
            n_pairs = int(rng.integers(1, (n - 1) // 2 + 1))
            seed = int(rng.integers(2**31))
            got, got_rest = pair_disjoint(ds, n_pairs, seed=seed)
            want, want_rest = reference_pair_disjoint(ds, n_pairs, seed=seed)
            assert_pairs_equal(got, want)
            for name in ("ids", "x", "y"):
                np.testing.assert_array_equal(getattr(got_rest, name), getattr(want_rest, name))
            assert got_rest.class_count == want_rest.class_count


class TestSdpfOracle:
    @pytest.mark.parametrize("inline", [False, True])
    def test_files_and_arrays_match(self, tmp_path, inline):
        rng = np.random.default_rng(11)
        for trial in range(12):
            n = int(rng.integers(2, 40))
            ds = random_dataset(rng, n, 3, dim=int(rng.integers(1, 5)), odd_ids=trial % 2 == 0)
            if trial % 3 == 0:
                pairs = pair_exhaustive(ds)
            else:
                count = int(rng.integers(1, n * (n - 1) // 2 + 1))
                pairs = pair_sampled(ds, PairingConfig(n_pairs=count, seed=trial))
            new, old = tmp_path / f"new{trial}.sdpf", tmp_path / f"old{trial}.sdpf"
            save_pairs(pairs, str(new), inline=inline)
            reference_save_pairs(pairs, str(old), inline=inline)
            assert new.read_bytes() == old.read_bytes()
            source = None if inline else ds
            got, want = load_pairs(str(new), source=source), reference_load_pairs(str(old), source)
            assert_pairs_equal(got, want)
            if inline:
                assert got.source.x.dtype == want.source.x.dtype
                np.testing.assert_array_equal(got.source.x, want.source.x)
                np.testing.assert_array_equal(got.source.ids, want.source.ids)
            else:
                assert got.source is ds

    def test_empty_release(self, tmp_path):
        empty = np.empty(0, dtype=np.int64)
        pairs = PairDataset(a_ids=empty, b_ids=empty, t=np.empty(0, dtype=np.uint8))
        new, old = tmp_path / "new.sdpf", tmp_path / "old.sdpf"
        save_pairs(pairs, str(new))
        reference_save_pairs(pairs, str(old))
        assert new.read_bytes() == old.read_bytes()
        assert len(load_pairs(str(new))) == 0


def random_release(rng, n_ids, n_edges, p_same):
    ids = np.sort(rng.choice(np.arange(-3 * n_ids, 3 * n_ids), size=n_ids, replace=False))
    i = rng.integers(0, n_ids, size=n_edges)
    j = rng.integers(0, n_ids, size=n_edges)
    keep = i != j
    a, b = ids[i[keep]], ids[j[keep]]
    t = (rng.random(int(keep.sum())) < p_same).astype(np.uint8)
    return PairDataset.build(a, b, t)


class TestClustersOracle:
    def test_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(80):
            n_ids = int(rng.integers(2, 120))
            pairs = random_release(rng, n_ids, int(rng.integers(1, 3 * n_ids)),
                                   float(rng.random()))
            assert recover_clusters(pairs) == reference_recover_clusters(pairs)

    def test_isolated_and_disagreement_only_participants(self):
        """Ids touched only by t = 0 pairs stay singletons in both."""
        pairs = PairDataset(
            a_ids=np.array([-9, -9, 0, 3, 7, 20], dtype=np.int64),
            b_ids=np.array([4, 50, 3, 5, 8, 21], dtype=np.int64),
            t=np.array([0, 0, 1, 1, 0, 1], dtype=np.uint8),
        )
        got = recover_clusters(pairs)
        assert got == reference_recover_clusters(pairs)
        assert got == [[-9], [0, 3, 5], [4], [7], [8], [20, 21], [50]]

    def test_long_chains(self):
        rng = np.random.default_rng(3)
        n = 20000
        for perm in (np.arange(n), np.arange(n)[::-1], rng.permutation(n)):
            pairs = PairDataset.build(perm[:-1], perm[1:], np.ones(n - 1, dtype=np.uint8))
            got = recover_clusters(pairs)
            assert got == reference_recover_clusters(pairs)
            assert got == [list(range(n))]

    def test_empty_release(self):
        empty = np.empty(0, dtype=np.int64)
        pairs = PairDataset(a_ids=empty, b_ids=empty, t=np.empty(0, dtype=np.uint8))
        assert recover_clusters(pairs) == []


class TestAgreementOracle:
    def test_exactly_equal_floats(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n_ids = int(rng.integers(2, 150))
            pairs = random_release(rng, n_ids, int(rng.integers(1, 2 * n_ids)),
                                   float(rng.random()))
            comps = recover_clusters(pairs)
            labels = {int(p): int(rng.integers(-3, 4)) for c in comps for p in c}
            if sum(map(len, comps)) < 2:
                continue
            assert pairwise_agreement(comps, labels) == reference_pairwise_agreement(comps, labels)
