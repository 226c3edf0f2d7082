"""_streams' uniform and normal values against numpy's Generator.

Every random: channel and input reads Generator(Philox(seed)) values,
computed by _streams with array arithmetic and numpy's ziggurat tables:
they must equal numpy's bit for bit, and the campaigns that read them
must not import numpy.random at all.
"""

import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qteleport
from qteleport import _streams, campaign
from qteleport._streams import standard_normals, uniforms
from qteleport.campaign import run_campaign
from qteleport.config import load_config, random_coeffs
from qteleport.primitives import ChannelSpec
from qteleport.protocol import InputStateSpec, _success_probability

# Seeds of 1, 2, 4, 5 and 7 uint32 words: more than 4 words hash more rounds.
SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 5, 2**128 - 1, 2**128, 2**200 + 3]


def _generator(seed):
    return np.random.Generator(np.random.Philox(seed))


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@pytest.mark.parametrize("count", [1, 3, 4, 5, 32, 257])
def test_uniforms_and_normals_match_numpy(count):
    normals, values = standard_normals(SEEDS, count), uniforms(SEEDS, count)
    for seed, normal_row, uniform_row in zip(SEEDS, normals, values):
        assert _same_bits(normal_row, _generator(seed).standard_normal(count)), seed
        assert _same_bits(uniform_row, _generator(seed).random(count)), seed
        assert _same_bits(0.25 + 1.5 * uniform_row, _generator(seed).uniform(0.25, 1.75, count))


@pytest.mark.parametrize("d, m, seed", [(2, 1, 0), (3, 2, 5), (2, 10, 4), (5, 3, 2**70 + 1)])
def test_random_input_and_coeffs_are_numpys(d, m, seed):
    rng = _generator(seed)
    raw = rng.standard_normal(d**m) + 1j * rng.standard_normal(d**m)
    assert _same_bits(InputStateSpec.random(d, m, seed).beta, raw / np.linalg.norm(raw))

    weights = _generator(seed).uniform(0.25, 1.75, size=d)
    weights *= d / weights.sum()
    assert random_coeffs(d, seed) == tuple(complex(v) for v in np.sqrt(weights))


def _counting_math(monkeypatch):
    """Count _streams' math.log1p (the tail) and math.exp (the wedge) calls."""
    calls = {"log1p": 0, "exp": 0}

    def counted(name):
        def call(value):
            calls[name] += 1
            return getattr(math, name)(value)

        return call

    monkeypatch.setattr(_streams, "math", types.SimpleNamespace(**{n: counted(n) for n in calls}))
    return calls


def test_long_stream_runs_the_tail_and_the_wedge(monkeypatch):
    calls = _counting_math(monkeypatch)
    normals = standard_normals([11], 200_000)[0]
    assert _same_bits(normals, _generator(11).standard_normal(200_000))
    assert calls["log1p"] >= 2 and calls["exp"] >= 100  # layer 0's tail and the wedges ran
    rng = _generator(11)  # two calls read one stream
    assert _same_bits(normals[:3000], np.concatenate([rng.standard_normal(1000), rng.standard_normal(2000)]))


@pytest.mark.parametrize("chunk_words", [16, 64, 1000])
def test_batched_rows_equal_one_seed_calls_at_any_chunk_size(monkeypatch, chunk_words):
    monkeypatch.setattr(_streams, "NORMAL_CHUNK_WORDS", chunk_words)
    blocks = _streams._philox_blocks
    past_the_end = []  # words read by a reject beyond its chunk

    def counted(k0, k1, count, first=1):
        past_the_end.append(count == 1)
        return blocks(k0, k1, count, first)

    monkeypatch.setattr(_streams, "_philox_blocks", counted)
    seeds = SEEDS + list(range(100, 140))
    batched = standard_normals(seeds, 300)
    for seed, row in zip(seeds, batched):
        assert _same_bits(row, standard_normals([seed], 300)[0]), seed
        assert _same_bits(row, _generator(seed).standard_normal(300)), seed
    if chunk_words == 16:
        assert any(past_the_end)


def test_seeds_must_be_non_negative_ints():
    with pytest.raises(ValueError, match="non-negative"):
        standard_normals([3, -1], 2)
    with pytest.raises(TypeError):
        uniforms([1.5], 2)
    assert standard_normals([1, 2], 0).shape == (2, 0)
    assert uniforms([], 3).shape == (0, 3)


def test_sweep_chunks_read_each_specs_own_streams(monkeypatch):
    # 64 normals a chunk: two d=4 m=2 specs (32 normals each) per chunk.
    monkeypatch.setattr(campaign, "SAMPLE_CHUNK_AMPLITUDES", 64)
    doc = {"kind": "sweep", "trials": 7, "seed": 3, "sweep": {"d": [2, 4], "m": [1, 2], "n": [0]}}
    for i, row in enumerate(run_campaign(load_config(doc)).rows):
        seed = 3 * 1_000_003 + 2 * i
        chan = ChannelSpec(row["d"], 0, row["m"], random_coeffs(row["d"], seed))
        inp = InputStateSpec.random(row["d"], row["m"], seed + 1)
        assert row["coeffs"] == ";".join(repr(abs(c)) for c in chan.coeffs)
        assert row["success_probability"] == _success_probability(inp, chan)


_NUMPY_RANDOM_CHILD = """
import sys
from qteleport.cli import main
code = main(sys.argv[1:])
print("numpy.random" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

RANDOM_DOCS = {
    "montecarlo": {"kind": "montecarlo", "d": 3, "m": 2, "n": 1, "trials": 30,
                   "coeffs": "random:4", "beta": "random:5", "seed": 6},
    "enumerate": {"kind": "enumerate", "d": 2, "m": 2, "n": 1,
                  "coeffs": "random:7", "beta": "random:8"},
    "sweep": {"kind": "sweep", "trials": 6, "seed": 9,
              "sweep": {"d": [2, 3], "m": [1, 2], "n": [0, 1]}},
}


@pytest.mark.parametrize("kind", sorted(RANDOM_DOCS))
def test_random_campaigns_never_import_numpy_random(tmp_path, kind):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(RANDOM_DOCS[kind]))
    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_RANDOM_CHILD, kind, "--config", str(path),
         "--out", str(tmp_path / "out.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split()[-1] == "False"


# 41 uint32 words: the pool hashes 37 words beyond its four.
LONG_SEED = 2**1300 + 12345


def _child_generator(seed, i):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))


@pytest.mark.parametrize("seed", [*SEEDS, LONG_SEED])
def test_every_seed_and_its_children_match_numpy(seed):
    assert _same_bits(uniforms([seed], 9)[0], _generator(seed).random(9))
    assert _same_bits(standard_normals([seed], 9)[0], _generator(seed).standard_normal(9))
    rows = _streams.child_uniforms(seed, 0, 3, 5)
    for i, row in enumerate(rows):
        assert _same_bits(row, _child_generator(seed, i).random(5)), i


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**160), st.sampled_from([*SEEDS, LONG_SEED])),
                min_size=1, max_size=40))
def test_seeds_hashed_side_by_side_get_numpys_keys(seeds):
    # The seeds share one int, a lane each: no lane may leak into its
    # neighbour, and a short seed's lane ignores the longer seeds' words.
    k0, k1 = _streams._seed_keys(seeds)
    for seed, a, b in zip(seeds, k0.tolist(), k1.tolist()):
        assert [a, b] == np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist(), seed


@pytest.mark.parametrize("seed", [0, 2**64 + 9, LONG_SEED])
def test_children_at_the_edges_of_the_spawn_range_match_numpy(seed):
    rows = _streams.child_uniforms(seed, 2**32 - 2, 2**32, 3)
    for i, row in zip([2**32 - 2, 2**32 - 1], rows):
        assert _same_bits(row, _child_generator(seed, i).random(3)), i
    for i in [0, 1, 2**31]:
        assert _same_bits(_streams.child_uniforms(seed, i, i + 1, 6)[0],
                          _child_generator(seed, i).random(6)), i


def _numpy_blocks(k0, k1, blocks, first):
    """numpy's raw words of counter blocks first..first+blocks-1 under key (k0, k1):
    its counter is incremented before each block."""
    bit_generator = np.random.Philox(key=np.array([k0, k1], np.uint64),
                                     counter=np.array([first - 1, 0, 0, 0], np.uint64))
    return bit_generator.random_raw(4 * blocks)


# Small slice sizes make the calls below cross slice boundaries between
# blocks and between keys; 2^13 + 3 blocks cross the default's.  (With
# raising=False the test also runs against a kernel without slices.)
@pytest.mark.parametrize(
    "slice_words, keys, blocks, first",
    [(None, 1, 2**13 + 3, 5)] + [
        (slice_words, *case) for slice_words in (None, 4, 12, 36)
        for case in [(1, 1, 1), (3, 5, 2), (2, 37, 2**40 + 7), (11, 3, 9)]
    ],
)
def test_philox_blocks_match_numpys_raw_words(monkeypatch, slice_words, keys, blocks, first):
    if slice_words is not None:
        monkeypatch.setattr(_streams, "PHILOX_SLICE_WORDS", slice_words, raising=False)
    top = 1 << 63
    k0 = np.array([top | 5, 7, 2**64 - 1, 0, top, 12345, top | 2**40, 3, 2**63 - 1, 1, 99][:keys],
                  np.uint64)
    k1 = np.array([top | 11, 2**64 - 1, 0, top, 6, top | 3, 8, 2**62, 4, top | 1, 2][:keys],
                  np.uint64)
    words = _streams._philox_blocks(k0, k1, blocks, first)
    assert words.shape == (keys, 4 * blocks) and words.dtype == np.uint64
    for row, a, b in zip(words, k0.tolist(), k1.tolist()):
        assert np.array_equal(row, _numpy_blocks(a, b, blocks, first)), (a, b)


_COLD_PATH_CHILD = """
import sys
import qteleport.cli
from qteleport._streams import child_uniforms, standard_normals, uniforms
before = set(sys.modules)
standard_normals([3], 6)
uniforms([3, 4], 5)
child_uniforms(3, 0, 10, 4)
print(sorted(set(sys.modules) - before))
"""


def test_the_first_values_import_no_module():
    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    proc = subprocess.run([sys.executable, "-c", _COLD_PATH_CHILD], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
