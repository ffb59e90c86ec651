"""The spec tree's field tables: completeness, round trip, and a mutation sweep.

Every block's ``FIELDS`` table is the single declaration its constructor,
checks, ``to_dict`` and ``from_dict`` derive from.  These tests pin that the
table and the dataclass agree, that the round trip is exact for every
bundled preset, and — the cheapest slice of scenario fuzzing — that no
wrong-typed or out-of-range substitution anywhere in a preset's JSON can
escape as anything but a :class:`SpecError`.
"""

import copy
import dataclasses

import pytest

from repro.scenario import ScenarioSpec, SpecError, build, get_preset, preset_names
from repro.scenario import spec as spec_module
from repro.scenario.spec import Param, check_value

#: One value of every JSON shape a field is *not* expecting, plus the
#: out-of-range and non-finite numbers (``1e400`` parses to ``inf``).
MUTANTS = (5, "abc", None, [1], {"x": 1}, True, 2.5, -1, 1.0, 1e400, float("nan"), [[1]])

BLOCKS = [getattr(spec_module, name) for name in spec_module.__all__
          if name.endswith("Spec")]


def _trails(value, trail=()):
    """The path to every node of a JSON tree (first two items of each list)."""
    if trail:
        yield trail
    children = (value.items() if isinstance(value, dict)
                else enumerate(value[:2]) if isinstance(value, list) else ())
    for key, child in children:
        yield from _trails(child, trail + (key,))


def _substituted(tree, trail, mutant):
    tree = copy.deepcopy(tree)
    target = tree
    for step in trail[:-1]:
        target = target[step]
    target[trail[-1]] = mutant
    return tree


@pytest.mark.parametrize("name", preset_names())
def test_mutated_presets_only_ever_raise_spec_error(name):
    base = get_preset(name).to_dict()
    escaped = []
    for trail in _trails(base):
        for mutant in MUTANTS:
            try:
                # build() validates first; a mutant that passes must also build.
                build(ScenarioSpec.from_dict(_substituted(base, trail, mutant)), seed=1)
            except SpecError:
                pass
            except Exception as exc:  # the bug class under test
                escaped.append((trail, mutant, f"{type(exc).__name__}: {exc}"))
    assert not escaped, escaped[:10]


@pytest.mark.parametrize("name", preset_names())
def test_round_trip_is_exact(name):
    spec = get_preset(name)
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.to_dict() == spec.to_dict()


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.__name__)
def test_every_dataclass_field_has_exactly_one_table_entry(block):
    # A field added to a block without a declaration (or a declaration
    # without a field) would be silently unvalidated / unserialised.
    fields = dataclasses.fields(block)
    assert [field.name for field in fields] == list(block.FIELDS)
    assert all(isinstance(param, Param) for param in block.FIELDS.values())
    split = block._SCALAR_FIELDS + block._LIST_FIELDS + block._CHILD_FIELDS
    assert sorted(name for name, _ in split) == sorted(block.FIELDS)
    for field in fields:
        param = block.FIELDS[field.name]
        required = (field.default is dataclasses.MISSING
                    and field.default_factory is dataclasses.MISSING)
        assert required == param.required, field.name


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.__name__)
def test_every_declared_default_passes_its_own_checks(block):
    # check_fields skips a field that still holds its default object, so
    # every such default must be one the checks would accept.
    defaults = [(name, param) for name, param in block.FIELDS.items()
                if not param.required and not callable(param.default)]
    for name, param in defaults:
        for item in param.default if param.many else (param.default,):
            check_value(param, item, block.__name__, name)


def test_the_block_list_is_the_whole_tree():
    assert len(BLOCKS) == 13
    reachable, frontier = set(), [ScenarioSpec]
    while frontier:
        block = frontier.pop()
        reachable.add(block)
        frontier += [param.type for _, param in block._CHILD_FIELDS
                     if param.type not in reachable]
    assert reachable == set(BLOCKS)
