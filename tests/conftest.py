import copy
import importlib.util
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import settings

from rigidity.flatsurf import NonTransitive, build_origami

# every run draws the same examples: tier-1 time and coverage stay fixed
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def random_transitive_origami(rnd: random.Random, n_min=2, n_max=8):
    """Uniformly shuffled gluings, resampled until the surface is connected."""
    while True:
        n = rnd.randint(n_min, n_max)
        h = list(range(1, n + 1))
        v = list(range(1, n + 1))
        rnd.shuffle(h)
        rnd.shuffle(v)
        try:
            return build_origami(n, h, v)
        except NonTransitive:
            continue


def perfbench_gen():
    """The benchmark's input module perfbench/gen.py (its CLI grid, twists)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def clones(value, protocols=(0, pickle.DEFAULT_PROTOCOL)):
    """Copies of value by copy, deepcopy, and pickle at each protocol given."""
    return (copy.copy(value), copy.deepcopy(value),
            *(pickle.loads(pickle.dumps(value, p)) for p in protocols))


def assert_frozen_value(make, other, text, digest, protocols=(0, pickle.DEFAULT_PROTOCOL)):
    """make() and other() build two unequal values of a named-tuple class;
    text and digest are the repr and hash recorded for make()."""
    value = make()
    assert value == make() and value != other()
    assert repr(value) == text and hash(value) == hash(make()) == digest
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    assert not hasattr(value, "__dict__")
    for clone in clones(value, protocols):
        assert type(clone) is type(value) and clone == value and hash(clone) == digest
