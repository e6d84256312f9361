"""The package's value classes keep the semantics of the frozen dataclasses
they replace: equality and hash over the field tuple, the same repr, the same
constructor signatures and defaults, and no assignment."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from momentforge.budget import Budget
from momentforge.finab import FinAbGroup
from momentforge.inversion import Bracket
from momentforge.qseries import SimpleType
from momentforge.sampler import SamplerConfig
from momentforge.verify import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"

G = ((2, (2, 1)), (3, (1,)))
# (instance, its fields by name in order, an instance with other fields, repr)
CASES = {
    "FinAbGroup": (
        FinAbGroup(G), {"components": G}, FinAbGroup(((2, (1,)),)),
        "FinAbGroup(components=((2, (2, 1)), (3, (1,))))",
    ),
    "Bracket": (
        Bracket(Fraction(1, 3), Fraction(1, 2)), {"lower": Fraction(1, 3), "upper": Fraction(1, 2)},
        Bracket(Fraction(1, 3), Fraction(1, 3)),
        "Bracket(lower=Fraction(1, 3), upper=Fraction(1, 2))",
    ),
    "SimpleType": (
        SimpleType("abelian", 4), {"kind": "abelian", "h": 4, "aut": None},
        SimpleType.nonabelian(60),
        "SimpleType(kind='abelian', h=4, aut=None)",
    ),
    "Budget": (
        Budget(), {"max_candidates": 4_000_000, "max_order": 65_536, "max_sample_work": 2**35},
        Budget(max_order=7),
        "Budget(max_candidates=4000000, max_order=65536, max_sample_work=34359738368)",
    ),
    "SamplerConfig": (
        SamplerConfig(p=2, cap=3, n=8, seed=1, count=5),
        {"p": 2, "cap": 3, "n": 8, "u": 0, "seed": 1, "count": 5},
        SamplerConfig(p=2, cap=3, n=8, u=1, seed=1, count=5),
        "SamplerConfig(p=2, cap=3, n=8, u=0, seed=1, count=5)",
    ),
    "CheckResult": (
        CheckResult("x", True, "d", 0.5),
        {"name": "x", "passed": True, "detail": "d", "seconds": 0.5},
        CheckResult("x", False, "d", 0.5),
        "CheckResult(name='x', passed=True, detail='d', seconds=0.5)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_eq_hash_repr(name):
    value, fields, other, text = CASES[name]
    twin = type(value)(**fields)
    values = tuple(fields.values())
    assert value == twin and value is not twin and value != other
    assert value != values and values != value  # no tuple equals a value
    # a dataclass's hash, so a set of values iterates in the same order
    assert hash(value) == hash(twin) == hash(values)
    assert repr(value) == text


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value, fields, _, _ = CASES[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", CASES)
def test_positional_and_keyword_construction(name):
    value, fields, _, _ = CASES[name]
    cls = type(value)
    assert cls(**fields) == value
    if cls is SamplerConfig:  # keyword-only
        with pytest.raises(TypeError, match="takes 1 positional argument but 7 were given"):
            cls(*fields.values())
    else:
        assert cls(*fields.values()) == value
    unknown = rf"^{name}\.__init__\(\) got an unexpected keyword argument 'bogus'$"
    with pytest.raises(TypeError, match=unknown):
        cls(**fields, bogus=1)


def test_defaults():
    assert SimpleType("nonabelian", aut=60) == SimpleType("nonabelian", None, 60)
    assert Budget(5) == Budget(5, 65_536, 2**35)
    assert SamplerConfig(p=2, cap=1, n=1, seed=0, count=0).u == 0
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'upper'"):
        Bracket(Fraction(1))


def test_unknown_budget_field_is_an_input_error():
    env = {**os.environ, "PYTHONPATH": str(SRC), "MOMENTFORGE_BUDGET": '{"bogus": 1}'}
    proc = subprocess.run(
        [sys.executable, "-m", "momentforge.cli", "verify", "--seed", "1", "--quick"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "error: cannot parse MOMENTFORGE_BUDGET='{\"bogus\": 1}': "
        "Budget.__init__() got an unexpected keyword argument 'bogus'\n"
    )
