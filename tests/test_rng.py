"""derive_rng's key-to-stream mapping: the aliases its docstring states, and one
stream per key tuple among the tuples the package's commands ask for; and the
one path, ``privacy.perturb``, through which those commands draw their noise.

``spy_streams`` and ``assert_distinct_streams`` also serve a run outside
pytest, e.g. a benchmark workload at full size:

    with spy_streams() as streams:
        run_figures(0, False, out_dir)
    assert_distinct_streams(streams)
"""

import contextlib
import importlib
import pkgutil
import re
import sys

import numpy as np
import pytest

import stabledp
from stabledp import rng as rng_mod
from stabledp.cli import DatasetConfig, SweepConfig, cmd_select, cmd_sweep, run_verify_suite
from stabledp.data_io import SplitPlan, synth_classification
from stabledp.model import ObjectiveSpec
from stabledp.optimizer import SgdConfig, sgd_run
from stabledp.privacy import laplace_sample, perturb
from stabledp.rng import derive_rng
from stabledp.verify import empirical_sensitivity, empirical_sgd_stability


def stream_state(gen: np.random.Generator) -> tuple:
    """The first four words of the SeedSequence that seeded ``gen``."""
    bg = gen.bit_generator
    seq = bg.seed_seq if hasattr(bg, "seed_seq") else bg._seed_seq  # public from numpy 1.25
    return tuple(seq.generate_state(4).tolist())


@contextlib.contextmanager
def spy_streams():
    """Map the keys, as an int tuple, of every derive_rng call made through a
    ``stabledp`` module's own binding of it, while the context is open, to the
    :func:`stream_state` of the generator it returned."""
    for info in pkgutil.iter_modules(stabledp.__path__):
        importlib.import_module(f"stabledp.{info.name}")
    original = rng_mod.derive_rng
    bound = [m for name, m in list(sys.modules.items())
             if name.startswith("stabledp") and getattr(m, "derive_rng", None) is original]
    streams = {}

    def spy(*keys):
        gen = original(*keys)
        streams[tuple(int(k) for k in keys)] = stream_state(gen)
        return gen

    for m in bound:
        m.derive_rng = spy
    try:
        yield streams
    finally:
        for m in bound:
            m.derive_rng = original


def assert_distinct_streams(streams: dict) -> int:
    """Fail when two distinct key tuples share a stream; return the tuple count."""
    seen = {}
    for keys, state in sorted(streams.items()):
        other = seen.setdefault(state, keys)
        assert other == keys, f"key tuples {other} and {keys} give one stream"
    return len(seen)


class TestAliases:
    """The three ways distinct key tuples share a stream, as the docstring states."""

    @staticmethod
    def same_stream(a, b):
        return stream_state(derive_rng(*a)) == stream_state(derive_rng(*b))

    def test_trailing_zeros_up_to_four_words(self):
        assert self.same_stream((5, 1), (5, 1, 0))
        assert self.same_stream((5, 1), (5, 1, 0, 0))
        assert not self.same_stream((5, 1), (5, 1, 0, 0, 0))

    def test_wide_key_splits_into_32_bit_words(self):
        assert self.same_stream((5, 2**32 + 1), (5, 1, 1))

    def test_negative_key_wraps_modulo_2_64(self):
        assert self.same_stream((-1,), (2**64 - 1,))

    def test_one_state_is_one_stream(self):
        a, b, c = derive_rng(5, 1), derive_rng(5, 1, 0), derive_rng(5, 2)
        assert a.bit_generator.state == b.bit_generator.state
        assert a.bit_generator.state != c.bit_generator.state
        assert stream_state(a) != stream_state(c)


class TestKeys:
    """Every key is an integer; any other is refused, not truncated."""

    def test_numpy_integers_are_keys(self):
        assert stream_state(derive_rng(np.int64(5), np.uint32(1))) == \
            stream_state(derive_rng(5, 1))

    @pytest.mark.parametrize("key", [1.9, 2.0, np.float64(1.0), True, "x", None])
    def test_other_keys_raise_naming_their_position(self, key):
        want = rf"^key 1 must be an integer, got {re.escape(repr(key))}$"
        with pytest.raises(ValueError, match=want):
            derive_rng(3, key)

    def test_a_float_seed_trains_nothing(self):
        # seed=1.9 once trained exactly as seed=1, and seed=2.7 reported what seed 2 did
        S, _ = synth_classification(30, 4, classes=2, sparsity=4, noise=0.5, seed=9)
        spec = ObjectiveSpec("logistic", 0.2, penalty="l2")
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.9$"):
            sgd_run(spec, S, SgdConfig(steps_T=5, step_size=0.1, batch_size_b=5, seed=1.9))
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.7$"):
            empirical_sensitivity([spec], S, trials=2, seed=2.7)

    def test_key_0_is_named_seed(self):
        # every call in the package passes its seed first
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.7$"):
            derive_rng(2.7, 1)

    def test_a_float_seed_is_refused_when_the_sgd_config_is_built(self):
        # it once built, and failed only at sgd_run's first draw
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.9$"):
            SgdConfig(steps_T=5, step_size=0.1, batch_size_b=5, seed=1.9)


def test_spy_sees_an_alias():
    with spy_streams() as streams:
        derive_rng(1, 2)  # not through a stabledp module: unseen
        stabledp.data_io.derive_rng(5, 1)
        stabledp.verify.derive_rng(5, 1, 0)
    assert set(streams) == {(5, 1), (5, 1, 0)}
    assert stabledp.data_io.derive_rng is derive_rng
    with pytest.raises(AssertionError, match="give one stream"):
        assert_distinct_streams(streams)


def run_commands(tmp_path):
    """A small sweep and select, then every verify suite at small sizes."""
    cfg = SweepConfig(dataset=DatasetConfig(n=120, d=12, classes=2, sparsity=4, seed=3,
                                            reduce_to=6),
                      split=SplitPlan(seed=0, repeats=2), lambda_grid=(0.05, 0.2),
                      epsilon_grid=(1.0, 4.0))
    cmd_sweep(cfg, tmp_path / "sweep")
    cmd_select(cfg, tmp_path / "select")
    run_verify_suite("all", trials=4, probes=5, samples=20_000, draws=2_000, seed=0)


def test_commands_use_one_stream_per_key_tuple(tmp_path):
    S, _ = synth_classification(60, 5, classes=2, sparsity=5, noise=0.5, seed=9)
    spec = ObjectiveSpec("logistic", 0.2, penalty="l2")
    sgd = SgdConfig(steps_T=20, step_size=0.1, batch_size_b=5, seed=3, dropout_rate_s=0.5)
    with spy_streams() as streams:
        run_commands(tmp_path)
        empirical_sgd_stability(spec, S, sgd, trials=3, probes=5, seed=0)
    # every command above draws: splits, noise, neighbours, probes, SGD batches
    assert assert_distinct_streams(streams) > 50


def test_commands_draw_noise_through_perturb_alone(monkeypatch, tmp_path):
    # a spy in place of each stabledp module's binding of laplace_sample
    # records the code of its caller; the dp suite's bounded-mean samplers
    # once drew through laplace_sample directly
    for info in pkgutil.iter_modules(stabledp.__path__):
        importlib.import_module(f"stabledp.{info.name}")
    callers = []

    def spy(*args):
        callers.append(sys._getframe(1).f_code)
        return laplace_sample(*args)

    for name, m in list(sys.modules.items()):
        if name.startswith("stabledp") and getattr(m, "laplace_sample", None) is laplace_sample:
            monkeypatch.setattr(m, "laplace_sample", spy)
    run_commands(tmp_path)
    assert callers and set(callers) == {perturb.__code__}
