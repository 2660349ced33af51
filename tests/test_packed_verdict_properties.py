"""Hypothesis model check of the packed verdict containers.

Every engine's campaign call returns a
:class:`~repro.engine.PackedVerdicts` (compare oracle) or a
:class:`~repro.engine.PackedPairVerdicts` (two-phase session), so
these properties pin both against the plain per-fault list they
replace: strided layouts (``stride`` variants per slot, ``slot_stride``
bits between slots) with junk bits outside the valid slot positions,
item access with negative indices, slices with negative steps, the
missed-fault sample, chunk concatenation at ``shard_bounds`` cuts,
pickling and the popcount counters.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.engine import PackedPairVerdicts, PackedVerdicts, shard_bounds

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def layouts(draw):
    """``(stride, slot_stride, slots)`` of one packed layout."""
    stride = draw(st.integers(1, 5), label="stride")
    slot_stride = draw(st.integers(1, 9), label="slot_stride")
    slots = draw(st.integers(0, 24), label="slots")
    return stride, slot_stride, slots


def pack(draw, model, stride, slot_stride):
    """The vectors of *model* in the given layout, with random junk at
    every bit that is not a valid slot position."""
    slots = len(model) // stride
    valid = sum(1 << (slot * slot_stride) for slot in range(slots))
    span = slots * slot_stride + 16  # junk above the last slot too
    vectors = []
    for variant in range(stride):
        bits = 0
        for slot in range(slots):
            if model[slot * stride + variant]:
                bits |= 1 << (slot * slot_stride)
        junk = draw(st.integers(0, (1 << span) - 1), label="junk")
        vectors.append(bits | (junk & ~valid))
    return vectors


@st.composite
def packed_verdicts(draw):
    """``(PackedVerdicts, model list)`` over a random strided layout."""
    stride, slot_stride, slots = draw(layouts())
    model = draw(
        st.lists(st.booleans(), min_size=slots * stride, max_size=slots * stride),
        label="model",
    )
    vectors = pack(draw, model, stride, slot_stride)
    verdicts = PackedVerdicts(
        len(model), vectors, stride=stride, slot_stride=slot_stride
    )
    return verdicts, model


@st.composite
def packed_pairs(draw):
    """``(PackedPairVerdicts, stream model, signature model)`` sharing
    one random layout."""
    stride, slot_stride, slots = draw(layouts())
    n = slots * stride
    stream = draw(st.lists(st.booleans(), min_size=n, max_size=n), label="stream")
    signature = draw(
        st.lists(st.booleans(), min_size=n, max_size=n), label="signature"
    )
    geometry = {"stride": stride, "slot_stride": slot_stride}
    pairs = PackedPairVerdicts(
        PackedVerdicts(n, pack(draw, stream, stride, slot_stride), **geometry),
        PackedVerdicts(n, pack(draw, signature, stride, slot_stride), **geometry),
    )
    return pairs, stream, signature


def missed(model, limit):
    out = [i for i, hit in enumerate(model) if not hit]
    return out if limit is None else out[: max(limit, 0)]


slices = st.builds(
    slice,
    st.none() | st.integers(-30, 30),
    st.none() | st.integers(-30, 30),
    st.none() | st.integers(-4, 4).filter(bool),
)


class TestPackedVerdicts:
    @SETTINGS
    @given(packed_verdicts())
    def test_iteration_and_counts(self, case):
        verdicts, model = case
        assert len(verdicts) == len(model)
        assert list(verdicts) == model
        assert verdicts.tolist() == model
        assert verdicts == model
        assert verdicts.count() == sum(model)

    @SETTINGS
    @given(packed_verdicts(), st.data())
    def test_item_access(self, case, data):
        verdicts, model = case
        n = len(model)
        for index in range(-n, n):
            assert verdicts[index] == model[index]
        outside = data.draw(
            st.integers(n, n + 40) | st.integers(-n - 40, -n - 1),
            label="outside",
        )
        try:
            verdicts[outside]
        except IndexError:
            pass
        else:
            raise AssertionError(f"index {outside} of {n} did not raise")

    @SETTINGS
    @given(packed_verdicts(), slices)
    def test_slices(self, case, index):
        verdicts, model = case
        assert verdicts[index] == model[index]

    @SETTINGS
    @given(packed_verdicts(), st.none() | st.integers(-2, 40))
    def test_missed_indices(self, case, limit):
        verdicts, model = case
        assert verdicts.missed_indices(limit) == missed(model, limit)

    @SETTINGS
    @given(packed_verdicts())
    def test_pickle_round_trip(self, case):
        verdicts, model = case
        clone = pickle.loads(pickle.dumps(verdicts))
        assert clone == verdicts == model
        assert (clone.stride, clone.slot_stride, clone.vectors) == (
            verdicts.stride,
            verdicts.slot_stride,
            verdicts.vectors,
        )

    @SETTINGS
    @given(st.lists(st.booleans(), max_size=80), st.integers(1, 9))
    def test_concat_of_shards(self, model, n_chunks):
        parts = [
            PackedVerdicts.from_bools(model[start:stop])
            for start, stop in shard_bounds(len(model), n_chunks)
        ]
        merged = PackedVerdicts.concat(parts)
        assert merged == model
        assert merged.count() == sum(model)
        assert merged.missed_indices() == missed(model, None)

    @SETTINGS
    @given(packed_verdicts())
    def test_equal_to_flat_repacking(self, case):
        verdicts, model = case
        flat = PackedVerdicts.from_bools(model)
        assert flat == verdicts and verdicts == flat


class TestPackedPairVerdicts:
    @SETTINGS
    @given(packed_pairs())
    def test_iteration_and_counters(self, case):
        pairs, stream, signature = case
        model = list(zip(stream, signature))
        assert len(pairs) == len(model)
        assert list(pairs) == model
        assert pairs == model
        assert pairs.count() == sum(signature)
        assert pairs.stream_count() == sum(stream)
        assert pairs.aliased_count() == sum(
            s and not g for s, g in model
        )

    @SETTINGS
    @given(packed_pairs(), slices)
    def test_item_access_and_slices(self, case, index):
        pairs, stream, signature = case
        model = list(zip(stream, signature))
        for i in range(-len(model), len(model)):
            assert pairs[i] == model[i]
        assert pairs[index] == model[index]

    @SETTINGS
    @given(packed_pairs(), st.none() | st.integers(-2, 40))
    def test_missed_indices_follow_signature(self, case, limit):
        pairs, _stream, signature = case
        assert pairs.missed_indices(limit) == missed(signature, limit)

    @SETTINGS
    @given(packed_pairs())
    def test_pickle_round_trip(self, case):
        pairs, stream, signature = case
        clone = pickle.loads(pickle.dumps(pairs))
        assert clone == pairs == list(zip(stream, signature))
        assert clone.signature.vectors == pairs.signature.vectors
        assert clone.stream.vectors == pairs.stream.vectors

    @SETTINGS
    @given(
        st.lists(st.tuples(st.booleans(), st.booleans()), max_size=80),
        st.integers(1, 9),
    )
    def test_concat_of_shards(self, model, n_chunks):
        parts = [
            PackedPairVerdicts.from_pairs(model[start:stop])
            for start, stop in shard_bounds(len(model), n_chunks)
        ]
        merged = PackedPairVerdicts.concat(parts)
        assert merged == model
        assert merged.stream_count() == sum(s for s, _ in model)
        assert merged.aliased_count() == sum(s and not g for s, g in model)
