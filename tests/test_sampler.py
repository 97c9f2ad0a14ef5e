import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import dependent_affines, empirical_tv, session_families
from countsample import rng
from countsample import sampler as sampler_mod
from countsample.coupler import CouplerKind, Tape, couple_probs
from countsample.diagnostics import joint_table
from countsample.families import (
    grid,
    pair_copy,
    random_affine,
    random_product,
    random_table,
    sticky_markov,
)
from countsample.hardness import generate, marginal_oracle_view
from countsample.oracle import (
    ConditionalOracle,
    MarkovChainOracle,
    OracleError,
    ProductOracle,
    TableOracle,
    ZeroMeasurePinning,
    approximate_wrap,
)
from countsample.sampler import (
    InconsistentOracle,
    Mode,
    PermutationMode,
    RoundRecord,
    Sample,
    SamplerConfig,
    SamplerTrace,
    compute_abar,
    deterministic_round_bound,
    efficient_sample,
    parallel_sample,
    resolve_theta,
    run_sampler,
    sequential_sample,
)

COUPLERS = (CouplerKind.MIN_COUPLER, CouplerKind.GUMBEL_TRICK)
PERMS = (PermutationMode.RANDOM, PermutationMode.IDENTITY)
GOLDEN_DIGEST = "ad9b1bca7948258a561f01cd4c35e561ec5c8d32cbbee9f13916bcf3a9bbd2f8"
TRACE_DIGEST = "f717c2974257cbecb4aeedeba6fa19010b72ca34c28c916a5f22c4d0ea0bc526"


def family_instances():
    return [
        ("table", random_table(4, 2, seed=3)),
        ("product", random_product(6, 3, seed=1)),
        ("markov", sticky_markov(8, 2, seed=6)),
        ("paircopy", pair_copy(8, 2)),
        ("affine", random_affine(7, 3, seed=7)),
        ("grid", grid(4, 3)),
        ("approximate", approximate_wrap(random_table(4, 2, seed=9), 0.3, 0.05, seed=2)),
    ]


class TestResolveTheta:
    def test_one(self):
        assert resolve_theta(1, 2) == 1

    def test_large_n_interior(self):
        theta = resolve_theta(10**6, 2)
        assert 1 < theta < 10**6

    def test_golden_value(self):
        # frozen evaluation of the closed form at n=1000, q=2 (natural logs)
        assert resolve_theta(1000, 2) == 9

    def test_monotone_in_n(self):
        values = [resolve_theta(n, 2) for n in (8, 64, 512, 4096)]
        assert values == sorted(values)

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_theta(0, 2)


@pytest.mark.parametrize("label,oracle", family_instances())
def test_exact_agreement_across_modes(label, oracle):
    for seed in range(150):
        for perm in PERMS:
            for kind in COUPLERS:
                config = SamplerConfig(seed=seed, coupler=kind, permutation=perm)
                s_seq, t_seq = sequential_sample(oracle, config)
                s_par, t_par = parallel_sample(oracle, config)
                s_eff, t_eff = efficient_sample(oracle, config)
                assert s_seq == s_par == s_eff, (label, seed, perm, kind)
                assert t_seq.rounds == oracle.n
                assert t_seq.total_queries == oracle.n


@pytest.mark.parametrize("label,oracle", family_instances())
def test_exact_agreement_explicit_thetas(label, oracle):
    for theta in (1, 2, 3, oracle.n, oracle.n + 5):
        for seed in range(25):
            config = SamplerConfig(seed=seed, theta=theta)
            s_seq, _ = sequential_sample(oracle, config)
            s_eff, trace = efficient_sample(oracle, config)
            assert s_seq == s_eff, (label, theta, seed)
            if theta == 1:
                # degenerates to sequential: one new coordinate per round
                assert trace.rounds == oracle.n


def _assert_accounting(trace, n):
    """The rest of the accounting rule is structural: ``SamplerTrace``
    refuses a round that does not follow the previous one, and reads its
    counts off the rounds.  So the last round settles ``n``, and the trace
    rebuilds from its own JSON."""
    assert trace.a_history[-1] == n
    assert SamplerTrace.from_json(trace.to_json()) == trace


@pytest.mark.parametrize("label,oracle", family_instances())
def test_trace_accounting(label, oracle):
    n = oracle.n
    settings = [(mode, None) for mode in Mode]
    settings += [(Mode.EFFICIENT, theta) for theta in (1, 2, 3, n, n + 5)]
    for seed in range(20):
        for kind in COUPLERS:
            for mode, theta in settings:
                config = SamplerConfig(seed=seed, coupler=kind, mode=mode, theta=theta)
                _, trace = run_sampler(oracle, config)
                _assert_accounting(trace, n)
                if mode is Mode.SEQUENTIAL:
                    assert trace.rounds == trace.total_queries == n


def _golden_digest():
    """sha256 over every mode's sample values and the sequential trace JSON
    on a fixed grid of (family, seed, coupler, permutation)."""
    h = hashlib.sha256()
    for label, oracle in family_instances():
        for seed in range(10):
            for kind in COUPLERS:
                for perm in PERMS:
                    config = SamplerConfig(seed=seed, coupler=kind, permutation=perm)
                    s_seq, t_seq = sequential_sample(oracle, config)
                    s_par, _ = parallel_sample(oracle, config)
                    s_eff, _ = efficient_sample(oracle, config)
                    key = (label, seed, kind.value, perm.value, s_seq.values, s_par.values, s_eff.values)
                    h.update(repr(key).encode())
                    h.update(t_seq.to_json_str().encode())
    return h.hexdigest()


def test_golden_digest():
    # frozen from the three separate sampler loops the engine replaced
    assert _golden_digest() == GOLDEN_DIGEST


def _trace_digest():
    """sha256 over the parallel and efficient trace JSON on a fixed grid of
    (family, seed, coupler, permutation)."""
    h = hashlib.sha256()
    for label, oracle in family_instances():
        for seed in range(5):
            for kind in COUPLERS:
                for perm in PERMS:
                    config = SamplerConfig(seed=seed, coupler=kind, permutation=perm)
                    for mode_fn in (parallel_sample, efficient_sample):
                        h.update(mode_fn(oracle, config)[1].to_json_str().encode())
    return h.hexdigest()


def test_trace_json_digest():
    # frozen while each round still stored its guessed tuple, batch size
    # and the trace its counts: the JSON is read off the windows unchanged
    assert _trace_digest() == TRACE_DIGEST


def _state(value):
    """Everything an object holds, as comparable values: arrays by dtype,
    shape and bytes, objects by their attributes."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: _state(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_state(v) for v in value)
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _state(vars(value)))
    return value


@pytest.mark.parametrize(
    "label,oracle", family_instances() + [("markov-long", sticky_markov(300, 3, seed=5))]
)
def test_no_state_outlives_a_sample(label, oracle):
    before = _state(oracle)
    jobs = [
        SamplerConfig(seed=seed, coupler=kind, mode=mode)
        for seed in (3, 4)
        for kind in COUPLERS
        for mode in Mode
    ]
    first = [run_sampler(oracle, job) for job in jobs]
    # Each job again, after every other job has run in between.
    assert [run_sampler(oracle, job) for job in jobs] == first, label
    assert _state(oracle) == before, label


def _sparse_row(q):
    """A length-``q`` weight row with zeros, positive at one drawn symbol."""
    row = st.lists(st.sampled_from((0.0, 0.2, 1.0, 3.0)), min_size=q, max_size=q)
    return st.tuples(row, st.integers(0, q - 1)).map(
        lambda rk: [w if i != rk[1] else max(w, 1.0) for i, w in enumerate(rk[0])]
    )


def _normalized_rows(rows):
    arr = np.array(rows, dtype=np.float64)
    return arr / arr.sum(axis=-1, keepdims=True)


@st.composite
def _sparse_table(draw):
    n, q = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    return TableOracle(n, q, _normalized_rows(draw(_sparse_row(q**n))))


@st.composite
def _sparse_markov(draw):
    n, q = draw(st.integers(1, 12)), draw(st.integers(2, 3))
    init = _normalized_rows(draw(_sparse_row(q)))
    rows = draw(st.lists(_sparse_row(q), min_size=(n - 1) * q, max_size=(n - 1) * q))
    trans = _normalized_rows(rows).reshape(n - 1, q, q) if n > 1 else np.empty((0, q, q))
    return MarkovChainOracle(init, trans)


@st.composite
def _grid(draw):
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if (w * h) % 2:
        w += 1
    return grid(w, h)


@st.composite
def _hardness(draw):
    r = draw(st.integers(1, 3))
    m = draw(st.integers(max(r, 2), 6))
    a = sorted(draw(st.lists(st.integers(0, m - 1), min_size=r, max_size=r, unique=True)))
    return marginal_oracle_view(generate(r * m, 1.0, draw(_SEEDS), override=(r, m, a)))


_SEEDS = st.integers(0, 2**32)
# Random small instances of each ``session_families()`` family, by label.
_RANDOM_FAMILIES = {
    "table": st.builds(random_table, st.integers(1, 4), st.integers(1, 3), _SEEDS),
    "table-sparse": _sparse_table(),
    "product": st.builds(random_product, st.integers(1, 6), st.integers(1, 4), _SEEDS),
    "product-sparse": st.integers(1, 6).flatmap(
        lambda n: st.integers(1, 4).flatmap(
            lambda q: st.lists(_sparse_row(q), min_size=n, max_size=n).map(
                lambda rows: ProductOracle(_normalized_rows(rows))
            )
        )
    ),
    "markov": st.builds(sticky_markov, st.integers(1, 30), st.integers(2, 4), _SEEDS),
    "markov-sparse": _sparse_markov(),
    "paircopy": st.builds(pair_copy, st.integers(1, 5).map(lambda k: 2 * k), st.integers(2, 3)),
    "affine": st.integers(1, 10).flatmap(
        lambda n: st.builds(random_affine, st.just(n), st.integers(0, n), _SEEDS)
    ),
    "affine-dependent": dependent_affines(10),
    "grid": _grid(),
    "grid-2x3": _grid(),
    "grid-3x4": _grid(),
    "hardness": _hardness(),
    "approximate": st.builds(
        approximate_wrap,
        st.builds(random_table, st.integers(1, 4), st.integers(2, 3), _SEEDS),
        st.floats(0.0, 0.9),
        st.floats(0.0, 0.5),
        _SEEDS,
    ),
}


def test_random_families_cover_the_session_families():
    assert set(_RANDOM_FAMILIES) == {label for label, _ in session_families()}


def _reference_values(oracle, config):
    """Position ``i`` coupled, on the tape keyed by ``(seed, i)``, against
    the reference ``_marginal_probs`` of its coordinate under the final
    values of positions ``1..i-1``: no session, no tape reuse."""
    n = oracle.n
    if config.permutation is PermutationMode.IDENTITY:
        perm = list(range(n))
    else:
        perm = rng.permutation(config.seed, n)
    values = [0] * n
    pins = {}
    for i, coord in enumerate(perm, start=1):
        probs = oracle._marginal_probs(coord, pins)
        values[coord] = pins[coord] = couple_probs(config.coupler, probs, config.seed, i)
    return tuple(values)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_every_mode_equals_a_from_scratch_reference(data):
    label = data.draw(st.sampled_from(sorted(_RANDOM_FAMILIES)))
    oracle = data.draw(_RANDOM_FAMILIES[label])
    config = SamplerConfig(
        seed=data.draw(st.integers(0, 2**64 - 1)),
        coupler=data.draw(st.sampled_from(COUPLERS)),
        permutation=data.draw(st.sampled_from(PERMS)),
    )
    theta = data.draw(st.integers(1, oracle.n + 2))
    expected = _reference_values(oracle, config)
    presets = ((Mode.SEQUENTIAL, None), (Mode.PARALLEL, None), (Mode.EFFICIENT, theta))
    for mode, preset_theta in presets:
        job = SamplerConfig(
            seed=config.seed,
            coupler=config.coupler,
            mode=mode,
            theta=preset_theta,
            permutation=config.permutation,
        )
        sample, trace = run_sampler(oracle, job)
        assert sample.values == expected, (label, mode, preset_theta)
        _assert_accounting(trace, oracle.n)


def _two_state_chain(switch):
    stay = 1.0 - switch
    return MarkovChainOracle([0.5, 0.5], [[[stay, switch], [switch, stay]]] * 5)


# Weight totals that go subnormal, and epsilon at the top of [0, 1).
_FLOAT_EDGE_ORACLES = [
    ("markov-1e-200", _two_state_chain(1e-200)),
    ("markov-1e-310", _two_state_chain(1e-310)),
    ("markov-5e-324", _two_state_chain(5e-324)),
    ("approximate-5e-324", approximate_wrap(_two_state_chain(5e-324), 1 - 1e-16, 0.3, seed=11)),
]


@pytest.mark.parametrize("label,oracle", _FLOAT_EDGE_ORACLES)
def test_float_edge_answers_are_exact_or_refused(label, oracle):
    # Every pinning of every free target: a finite answer summing to 1 (the
    # reference's bytes), or ZeroMeasurePinning exactly when it has measure 0.
    n = oracle.n
    for assignment in itertools.product((None, 0, 1), repeat=n):
        pins = {c: s for c, s in enumerate(assignment) if s is not None}
        zero = oracle._log_probability(pins) == -math.inf
        for target in sorted(set(range(n)) - set(pins)):
            if zero:
                with pytest.raises(ZeroMeasurePinning):
                    oracle.session(pins).marginal(target)
                continue
            probs = oracle.session(pins).marginal(target)
            assert np.isfinite(probs).all() and (probs >= 0.0).all(), (label, pins, target)
            assert abs(probs.sum() - 1.0) <= 1e-12, (label, pins, target)
            assert probs.tobytes() == oracle._marginal_probs(target, pins).tobytes()
    for seed in range(50):
        for kind in COUPLERS:
            expected = sequential_sample(oracle, SamplerConfig(seed=seed, coupler=kind))[0]
            for mode, theta in ((Mode.PARALLEL, None), (Mode.EFFICIENT, None), (Mode.EFFICIENT, 3)):
                config = SamplerConfig(seed=seed, coupler=kind, mode=mode, theta=theta)
                assert run_sampler(oracle, config)[0] == expected, (label, seed, kind, mode, theta)


class _RecordedSession:
    """Another session's pins and marginals; ``pinned`` lists the
    coordinates of its base and of every ``pin``."""

    def __init__(self, inner, base) -> None:
        self._inner = inner
        self.pinned = list(dict(base))

    def pin(self, coord, sym):
        self._inner.pin(coord, sym)
        self.pinned.append(coord)

    def marginal(self, target):
        return self._inner.marginal(target)

    def marginals(self, targets):
        return self._inner.marginals(targets)


class _RecordingOracle(ConditionalOracle):
    """``inner``, keeping every session it opens."""

    def __init__(self, inner: ConditionalOracle) -> None:
        self.inner = inner
        self.n = inner.n
        self.q = inner.q
        self.sessions: list[_RecordedSession] = []

    def session(self, base=()):
        self.sessions.append(_RecordedSession(self.inner.session(base), base))
        return self.sessions[-1]

    def _marginal_probs(self, target, pins):
        return self.inner._marginal_probs(target, pins)

    def _log_probability(self, pins):
        return self.inner._log_probability(pins)

    def to_json(self):
        return self.inner.to_json()


@pytest.mark.parametrize("label,oracle", family_instances() + session_families())
def test_the_engine_never_forks(label, oracle):
    # One session holds the whole sample, and it pins every coordinate
    # once: the engine never copies a sample's pinning into another.
    for seed in range(4):
        for kind in COUPLERS:
            for mode, theta in ((Mode.PARALLEL, None), (Mode.EFFICIENT, 2), (Mode.EFFICIENT, 3)):
                config = SamplerConfig(seed=seed, coupler=kind, mode=mode, theta=theta)
                recording = _RecordingOracle(oracle)
                assert run_sampler(recording, config) == run_sampler(oracle, config)
                pinned = [sorted(session.pinned) for session in recording.sessions]
                assert pinned == [list(range(oracle.n))]


class TestConfigTypes:
    def test_coupler_string_rejected(self):
        # a string used to fall through to the gumbel coupler silently
        with pytest.raises(TypeError, match="coupler"):
            SamplerConfig(seed=3, coupler="min")

    def test_mode_string_rejected(self):
        with pytest.raises(TypeError, match="mode"):
            SamplerConfig(seed=3, mode="parallel")

    def test_permutation_string_rejected(self):
        # a string used to select the random permutation silently
        with pytest.raises(TypeError, match="permutation"):
            SamplerConfig(seed=3, permutation="identity")

    @pytest.mark.parametrize("theta", [2.5, 3.0, "3", True])
    def test_theta_non_int_rejected(self, theta):
        with pytest.raises(TypeError, match="theta"):
            SamplerConfig(seed=3, theta=theta)

    def test_theta_below_one_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=3, theta=0)

    @pytest.mark.parametrize("seed", [2.0, 2.5, "3", None, True, False, np.float64(3.0), np.True_])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(TypeError, match="seed"):
            SamplerConfig(seed=seed)

    def test_numpy_seed_is_stored_as_int(self):
        config = SamplerConfig(seed=np.uint64(2**64 - 1))
        assert type(config.seed) is int and config.seed == 2**64 - 1


# Numpy integer seeds next to the equal Python ints.
NUMPY_SEEDS = [np.uint64(2**64 - 1), np.uint64(5), np.uint64(2**63 + 5), np.int64(-3), np.uint8(200)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", NUMPY_SEEDS, ids=repr)
def test_numpy_seeds_draw_as_their_int(seed):
    # Every draw keys its streams with ``int(seed)``: no numpy scalar
    # arithmetic, so no overflow warning, and the same words.
    value = int(seed)
    for n in (1, 8, 63, 64, 100):
        assert rng.permutation(seed, n) == rng.permutation(value, n)
    for stream in (1, 3, -1, 2**64 - 1):
        assert rng.stream_key(seed, stream) == rng.stream_key(value, stream)
        assert rng.stream_key(seed, np.uint64(stream % 2**64)) == rng.stream_key(value, stream)
        counter = np.uint64(2**64 - 1 - stream % 2**64)
        assert rng.word64(seed, stream, counter) == rng.word64(value, stream, int(counter))
        assert rng.bounded_word(seed, stream, counter, 3) == rng.bounded_word(value, stream, int(counter), 3)
    for kind in COUPLERS:
        for probs in (np.array([0.5, 0.5]), np.array([0.1, 0.0, 0.6, 0.3])):
            for stream in (1, 2, 40):
                assert couple_probs(kind, probs, seed, stream) == couple_probs(kind, probs, value, stream)
        tape, reference = Tape(kind, seed, 2, 40), Tape(kind, value, 2, 40)
        for stream in range(1, 45):
            probs = np.array([0.3, 0.7])
            assert tape.couple(probs, stream) == reference.couple(probs, stream)
    oracle = sticky_markov(12, 2, seed=3)
    for mode in Mode:
        assert run_sampler(oracle, SamplerConfig(seed=seed, mode=mode)) == run_sampler(
            oracle, SamplerConfig(seed=value, mode=mode)
        )


def test_round_record_reads_off_its_window():
    record = RoundRecord(3, 6, 5)
    assert record.guessed == range(3, 7)
    assert record.batch_size == 7
    assert record.settled == 5
    assert RoundRecord(3, 6, None).settled == 6
    assert RoundRecord(4, 4, None).batch_size == 1
    assert record.to_json() == {"batch_size": 7, "guessed": [3, 4, 5, 6], "first_mismatch": 5}
    trace = SamplerTrace((RoundRecord(1, 3, 2), RoundRecord(3, 6, 5), RoundRecord(6, 6, None)))
    assert (trace.rounds, trace.total_queries, trace.a_history) == (3, 13, (2, 5, 6))


def test_trace_invariants_enforced():
    # the first position's verify is its guess, so a mismatch lies in (first, last]
    for mismatch in (0, 1, 4):
        with pytest.raises(ValueError):
            SamplerTrace((RoundRecord(1, 3, mismatch),))
    # each window starts right after the previous round's settled prefix
    for first in (1, 2, 4):
        with pytest.raises(ValueError):
            SamplerTrace((RoundRecord(1, 3, 2), RoundRecord(first, 5, None)))
    with pytest.raises(ValueError):
        SamplerTrace((RoundRecord(2, 3, None),))
    with pytest.raises(ValueError):
        SamplerTrace((RoundRecord(1, 0, None),))
    SamplerTrace((RoundRecord(1, 3, 2), RoundRecord(3, 5, None)))


def test_trace_json_roundtrip():
    oracle = sticky_markov(10, 2, seed=4)
    _, trace = efficient_sample(oracle, SamplerConfig(seed=5))
    again = SamplerTrace.from_json(trace.to_json())
    assert again == trace


def _edited(data, change):
    copy = json.loads(json.dumps(data))
    change(copy)
    return copy


def _tampered_traces(data):
    """Copies of an engine trace's JSON, each with one count or one round
    changed so that it contradicts the rest."""
    rounds = data["per_round"]
    wide = next(k for k, r in enumerate(rounds) if len(r["guessed"]) >= 3)
    # settled before its window's end, so dropping its mismatch moves a_history
    k = next(k for k, r in enumerate(rounds) if r["first_mismatch"] not in (None, r["guessed"][-1]))
    window = rounds[k]["guessed"]
    edits = {
        "rounds": lambda d: d.update(rounds=d["rounds"] + 1),
        "total_queries": lambda d: d.update(total_queries=d["total_queries"] - 1),
        "a_history": lambda d: d["a_history"].__setitem__(k, d["a_history"][k] + 1),
        "batch_size": lambda d: d["per_round"][0].update(batch_size=rounds[0]["batch_size"] + 2),
        "guessed gap": lambda d: d["per_round"][wide]["guessed"].pop(1),
        "mismatch past the window": lambda d: d["per_round"][k].update(first_mismatch=window[-1] + 1),
        "mismatch at the first position": lambda d: d["per_round"][k].update(first_mismatch=window[0]),
        "mismatch dropped": lambda d: d["per_round"][k].update(first_mismatch=None),
        "bool mismatch": lambda d: d["per_round"][k].update(first_mismatch=True),
        "float count": lambda d: d.update(rounds=float(d["rounds"])),
        "extra key": lambda d: d.update(mode="parallel"),
    }
    for label, change in edits.items():
        yield label, _edited(data, change)


# One round over positions 1..2 that mismatches at 2, and that shape with
# one part malformed.
_ONE_ROUND = {
    "rounds": 1,
    "total_queries": 3,
    "a_history": [2],
    "per_round": [{"batch_size": 3, "guessed": [1, 2], "first_mismatch": 2}],
}
_MALFORMED_TRACES = [None, [], {}, "trace", {"per_round": None}, {**_ONE_ROUND, "per_round": "1"}]
_MALFORMED_TRACES += [
    _edited(_ONE_ROUND, lambda d: d.pop(key)) for key in ("rounds", "a_history", "per_round")
]
_MALFORMED_TRACES += [
    _edited(_ONE_ROUND, lambda d, field=field, value=value: d["per_round"][0].update({field: value}))
    for field, values in (
        ("guessed", ([], 1, [1.0, 2.0], ["1", "2"], [None, 2], [1, float("inf")], [1, 2**62])),
        ("first_mismatch", (2.0, "2", [2], {})),
    )
    for value in values
]
_MALFORMED_TRACES += [
    _edited(_ONE_ROUND, lambda d, key=key: d["per_round"][0].pop(key))
    for key in ("guessed", "first_mismatch")
]


def _refused(data) -> bool:
    """Whether ``from_json`` refuses ``data`` with ``ValueError``; any other
    exception propagates and fails the test."""
    try:
        SamplerTrace.from_json(data)
    except ValueError:
        return True
    return False


def test_trace_from_json_refuses_contradictions():
    # rounds over positions 1..6 (settled at 4), 5..10, 11..16 (settled at 12), ...
    oracle = sticky_markov(24, 2, seed=3)
    _, trace = efficient_sample(oracle, SamplerConfig(seed=2, theta=6))
    data = trace.to_json()
    assert SamplerTrace.from_json(data) == trace
    assert [label for label, tampered in _tampered_traces(data) if not _refused(tampered)] == []
    assert SamplerTrace.from_json(_ONE_ROUND) == SamplerTrace((RoundRecord(1, 2, 2),))
    assert [shape for shape in _MALFORMED_TRACES if not _refused(shape)] == []


class TestAHistory:
    @pytest.mark.parametrize("label,oracle", family_instances())
    def test_strictly_increasing_everywhere(self, label, oracle):
        for seed in range(100):
            for mode_fn in (sequential_sample, parallel_sample, efficient_sample):
                _, trace = mode_fn(oracle, SamplerConfig(seed=seed))
                history = trace.a_history
                assert all(b > a for a, b in zip(history, history[1:]))


class TestParallel:
    def test_product_single_round(self):
        oracle = random_product(8, 2, seed=0)
        for seed in range(50):
            _, trace = parallel_sample(oracle, SamplerConfig(seed=seed))
            assert trace.rounds == 1
            # n guesses and n - 1 verifies: the first position's verify
            # query is its guess query and is not issued again
            assert trace.total_queries == 2 * oracle.n - 1

    def test_n_equals_one(self):
        oracle = random_table(1, 3, seed=2)
        _, trace = parallel_sample(oracle, SamplerConfig(seed=9))
        assert trace.rounds == 1

    def test_paircopy_harder_than_product(self):
        n = 10
        pc = pair_copy(n, 2)
        prod = random_product(n, 2, seed=0)
        seeds = range(200)
        config = lambda s: SamplerConfig(seed=s, permutation=PermutationMode.IDENTITY)
        pc_rounds = np.mean([parallel_sample(pc, config(s))[1].rounds for s in seeds])
        prod_rounds = np.mean([parallel_sample(prod, config(s))[1].rounds for s in seeds])
        assert pc_rounds > prod_rounds


class TestEfficient:
    def test_theta_covering_n_matches_parallel_rounds(self):
        oracle = sticky_markov(8, 2, seed=1)
        for seed in range(40):
            cfg = SamplerConfig(seed=seed, theta=8)
            s_par, t_par = parallel_sample(oracle, SamplerConfig(seed=seed))
            s_eff, t_eff = efficient_sample(oracle, cfg)
            assert s_par == s_eff
            assert t_par.rounds == t_eff.rounds

    def test_markov_beats_sequential_rounds(self):
        oracle = sticky_markov(256, 2, seed=9)
        rounds = []
        for seed in range(100):
            s_eff, trace = efficient_sample(oracle, SamplerConfig(seed=seed))
            s_seq, _ = sequential_sample(oracle, SamplerConfig(seed=seed))
            assert s_eff == s_seq
            rounds.append(trace.rounds)
        assert np.mean(rounds) < 256

    def test_query_budget(self):
        for n in (256, 1024):
            oracle = sticky_markov(n, 2, seed=5)
            ratios = []
            for seed in range(20):
                _, trace = efficient_sample(oracle, SamplerConfig(seed=seed))
                ratios.append(trace.total_queries / n)
            assert np.mean(ratios) <= 8.0


def _per_position_abar(oracle, config: SamplerConfig, i: int) -> int:
    """``compute_abar`` as first written: a fresh sample per position and a
    fresh pin dict per prefix, from ``i - 1`` down to 0."""
    n = oracle.n
    if config.permutation is PermutationMode.IDENTITY:
        perm = list(range(n))
    else:
        perm = rng.permutation(config.seed, n)
    sample, _ = sequential_sample(oracle, config)
    coord_i = perm[i - 1]
    final = sample.values[coord_i]
    for a in range(i - 1, -1, -1):
        pins = {perm[j - 1]: sample.values[perm[j - 1]] for j in range(1, a + 1)}
        probs = oracle._marginal_probs(coord_i, pins)
        if couple_probs(config.coupler, probs, config.seed, i) != final:
            return a
    return 0


class TestAbar:
    def test_product_always_zero(self):
        oracle = random_product(6, 2, seed=3)
        for seed in range(20):
            config = SamplerConfig(seed=seed)
            for i in range(1, 7):
                assert compute_abar(oracle, config, i) == 0

    def test_first_position_zero(self):
        oracle = random_table(5, 2, seed=1)
        for seed in range(20):
            assert compute_abar(oracle, SamplerConfig(seed=seed), 1) == 0

    def test_paircopy_identity_values(self):
        # pair-copied coordinate at position 4: re-coupling under any prefix
        # that misses its partner redraws the same uniform guess, so abar_4
        # is 2 exactly when that guess misses the copied value, else 0
        oracle = pair_copy(4, 2)
        seen = set()
        for seed in range(60):
            config = SamplerConfig(seed=seed, permutation=PermutationMode.IDENTITY)
            seen.add(compute_abar(oracle, config, 4))
        assert seen == {0, 2}

    def test_round_bound_holds(self):
        rng_local = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng_local.integers(3, 8))
            oracle = random_table(n, 2, seed=trial)
            seed = int(rng_local.integers(0, 2**32))
            theta = int(rng_local.integers(1, n + 2))
            config = SamplerConfig(seed=seed, theta=theta)
            _, trace = efficient_sample(oracle, config)
            bound = deterministic_round_bound(oracle, config, theta)
            assert trace.rounds <= bound

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_abars_equal_the_per_position_formula(self, data):
        # One sample and one session give every abar the per-position
        # formula gives with a fresh sample and fresh pins per prefix.
        n = data.draw(st.integers(1, 7))
        q = data.draw(st.integers(2, 3))
        if data.draw(st.booleans(), label="sparse"):
            # Zero-mass states, so some prefixes force their positions.
            weights = [float(x % 3 == 0) for x in range(q**n)]
            oracle = TableOracle(n, q, [w / sum(weights) for w in weights])
        else:
            oracle = random_table(n, q, seed=data.draw(st.integers(0, 999)))
        config = SamplerConfig(
            seed=data.draw(st.integers(0, 2**48)),
            coupler=data.draw(st.sampled_from(COUPLERS)),
            permutation=data.draw(st.sampled_from(list(PermutationMode))),
        )
        theta = data.draw(st.integers(1, n + 1))
        abars = [_per_position_abar(oracle, config, i) for i in range(1, n + 1)]
        assert [compute_abar(oracle, config, i) for i in range(1, n + 1)] == abars
        hits = sum(1 for i, abar in enumerate(abars, start=1) if abar >= i - theta)
        assert deterministic_round_bound(oracle, config, theta) == hits + 1 + n // theta

    def test_bound_formula_product(self):
        # abar_i == 0 on a product instance, so the hit set is exactly
        # the positions with i <= theta
        oracle = random_product(6, 2, seed=0)
        config = SamplerConfig(seed=4, theta=2)
        assert deterministic_round_bound(oracle, config, 2) == 2 + 1 + 3
        # theta = n: every position qualifies, giving the n + 2 ceiling
        assert deterministic_round_bound(oracle, config, 6) == 6 + 1 + 1


class TestDistributional:
    @pytest.mark.parametrize("kind", COUPLERS)
    def test_sequential_tv_small_table(self, kind):
        oracle = random_table(3, 2, seed=21)
        truth = joint_table(oracle).reshape(-1)
        trials = 20_000
        counts = np.zeros(8)
        for s in range(trials):
            sample, _ = sequential_sample(oracle, SamplerConfig(seed=s, coupler=kind))
            idx = sample.values[0] * 4 + sample.values[1] * 2 + sample.values[2]
            counts[idx] += 1
        assert empirical_tv(counts, truth) <= 0.02

    def test_point_mass_table(self):
        from countsample.oracle import TableOracle

        probs = np.zeros(8)
        probs[5] = 1.0  # config (1,0,1)
        oracle = TableOracle(3, 2, probs)
        for seed in range(30):
            sample, _ = run_sampler(oracle, SamplerConfig(seed=seed, mode=Mode.PARALLEL))
            assert sample.values == (1, 0, 1)


class TestTailBehavior:
    def test_rounds_concentrate(self):
        oracle = sticky_markov(1024, 2, seed=11)
        rounds = []
        for seed in range(400):
            _, trace = efficient_sample(oracle, SamplerConfig(seed=seed))
            rounds.append(trace.rounds)
        median = float(np.median(rounds))
        exceed = np.mean([r > 3 * median for r in rounds])
        assert exceed <= 0.05


class _CopiedSession(_RecordedSession):
    """A recorded session whose every answer is a fresh copy."""

    def marginal(self, target):
        return self._inner.marginal(target).copy()

    def marginals(self, targets):
        return [probs.copy() for probs in self._inner.marginals(targets)]


class _CopyingOracle(_RecordingOracle):
    """``inner``, with sessions whose answers are fresh copies: no verify
    answer is the array its guess got, so every verify couples."""

    def session(self, base=()):
        self.sessions.append(_CopiedSession(self.inner.session(base), base))
        return self.sessions[-1]


@pytest.mark.parametrize("label,oracle", session_families())
def test_a_reused_guess_equals_its_coupled_verify(label, oracle):
    # A verify whose answer is its guess's own array takes the guess's
    # symbol instead of coupling it again; copied answers turn that off.
    for seed in range(3):
        for kind in COUPLERS:
            for perm in PERMS:
                for mode, theta in (
                    (Mode.SEQUENTIAL, None),
                    (Mode.PARALLEL, None),
                    (Mode.EFFICIENT, None),
                    (Mode.EFFICIENT, 3),
                ):
                    config = SamplerConfig(
                        seed=seed, coupler=kind, mode=mode, theta=theta, permutation=perm
                    )
                    sample, trace = run_sampler(oracle, config)
                    copied, copied_trace = run_sampler(_CopyingOracle(oracle), config)
                    assert copied == sample, (label, config)
                    assert copied_trace.to_json_str() == trace.to_json_str(), (label, config)


class _LoggedSession(_RecordedSession):
    """A recorded session that logs each answer to ``events``."""

    def __init__(self, inner, base, events) -> None:
        super().__init__(inner, base)
        self._events = events

    def marginal(self, target):
        probs = self._inner.marginal(target)
        self._events.append(("marginal", target, probs))
        return probs

    def marginals(self, targets):
        answers = self._inner.marginals(targets)
        self._events += [("marginal", t, probs) for t, probs in zip(targets, answers)]
        return answers


def test_efficient_markov_couples_only_changed_verify_answers(monkeypatch):
    events = []

    class SpyTape(Tape):
        def couple(self, probs, stream):
            events.append(("couple", stream, probs))
            return super().couple(probs, stream)

    class LoggingOracle(_RecordingOracle):
        def session(self, base=()):
            return _LoggedSession(self.inner.session(base), base, events)

    oracle = sticky_markov(512, 2, seed=4)
    config = SamplerConfig(seed=11, mode=Mode.EFFICIENT)
    expected_run = run_sampler(oracle, config)
    monkeypatch.setattr(sampler_mod, "Tape", SpyTape)
    sample, trace = run_sampler(LoggingOracle(oracle), config)
    assert (sample, trace) == expected_run
    # Each round asks its w guesses, then its verifies in order; a verify
    # couples exactly when its answer is not its guess's array.
    answers = iter([probs for kind, _, probs in events if kind == "marginal"])
    expected = []
    reused = 0
    for record in trace.per_round:
        guessed = [next(answers) for _ in record.guessed]
        expected += zip(record.guessed, guessed)
        for i in range(record.first + 1, record.settled + 1):
            probs = next(answers)
            if probs is guessed[i - record.first]:
                reused += 1
            else:
                expected.append((i, probs))
    assert next(answers, None) is None
    coupled = [(stream, probs) for kind, stream, probs in events if kind == "couple"]
    assert [i for i, _ in coupled] == [i for i, _ in expected]
    assert all(got is want for (_, got), (_, want) in zip(coupled, expected))
    verifies = sum(record.settled - record.first for record in trace.per_round)
    assert 0 < reused < verifies


def test_run_sampler_dispatch():
    oracle = random_table(3, 2, seed=2)
    for mode in Mode:
        sample, trace = run_sampler(oracle, SamplerConfig(seed=1, mode=mode))
        assert isinstance(sample, Sample)
        assert trace.rounds >= 1


class _ForgetfulOracle(ConditionalOracle):
    """Uniform under up to ``limit - 1`` pins and zero measure under more:
    an oracle that contradicts its own earlier answers."""

    variant = "forgetful"

    def __init__(self, n: int, limit: int) -> None:
        self.n = n
        self.q = 2
        self.limit = limit

    def _marginal_probs(self, target, pins):
        if len(pins) >= self.limit:
            raise ZeroMeasurePinning("forgot the earlier answers")
        return np.array([0.5, 0.5])

    def _log_probability(self, pins):
        return -len(pins) * math.log(2.0) if len(pins) < self.limit else -math.inf

    def to_json(self):
        return {"variant": self.variant}


@pytest.mark.parametrize(
    "mode,theta,where",
    [(Mode.PARALLEL, None, (1, 4)), (Mode.EFFICIENT, 2, (2, 4))],
)
def test_unexplained_zero_measure_is_typed(mode, theta, where):
    config = SamplerConfig(seed=3, mode=mode, theta=theta)
    with pytest.raises(InconsistentOracle) as info:
        run_sampler(_ForgetfulOracle(6, limit=3), config)
    assert isinstance(info.value, OracleError)
    assert (info.value.round_index, info.value.position) == where
