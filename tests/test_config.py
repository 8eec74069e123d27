"""Config values and text form: checks at construction, round trips,
rejection of bad keys, preset sanity."""

import dataclasses
import math
import re

import numpy as np
import pytest

from v2apt.config import (
    ModelConfig,
    RunConfig,
    config_from_text,
    config_to_text,
    default_config,
    tiny_config,
)
from v2apt.errors import ConfigError


def test_text_form_is_sorted_key_value_lines():
    text = config_to_text(ModelConfig(), RunConfig())
    lines = text.strip().splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    assert keys == sorted(keys)
    assert all(" = " in line for line in lines)


def test_parse_serialize_fixed_point():
    m = ModelConfig(dim=24, heads=2, prompt_len=6, prompt_inst=2)
    r = RunConfig(lr=3e-4, steps=123, kl_beta=0.0)
    text = config_to_text(m, r)
    m2, r2 = config_from_text(text)
    assert (m2, r2) == (m, r)
    assert config_to_text(m2, r2) == text


def test_text_writes_each_value_as_the_type_it_parses_back_to():
    text = config_to_text(ModelConfig(dim=np.int64(24), heads=2), RunConfig(kl_beta=0, lr=np.float32(0.5)))
    assert {"dim = 24", "kl_beta = 0.0", "lr = 0.5"} <= set(text.splitlines())
    assert config_to_text(*config_from_text(text)) == text


def test_fields_hold_their_declared_types():
    model, run = ModelConfig(dim=np.int64(24), heads=np.int32(2)), RunConfig(kl_beta=0, lr=np.float32(0.5))
    assert (type(model.dim), type(model.heads), type(run.kl_beta), type(run.lr)) == (int, int, float, float)
    assert run.kl_beta == 0.0 and run.lr == 0.5


@pytest.mark.parametrize("build, message", [
    (lambda: ModelConfig(depth=2.5), "depth = 2.5 is not int"),
    (lambda: ModelConfig(dim=48.0), "dim = 48.0 is not int"),
    (lambda: RunConfig(seed=1.5), "seed = 1.5 is not int"),
    (lambda: RunConfig(steps=True), "steps = True is not int"),
    (lambda: RunConfig(lr="0.1"), "lr = '0.1' is not float"),
    (lambda: RunConfig(kl_beta=False), "kl_beta = False is not float"),
    (lambda: RunConfig(lr=10**400), "lr is an integer too large for a float"),
    (lambda: dataclasses.replace(RunConfig(), batch_size=8.0), "batch_size = 8.0 is not int"),
])
def test_a_field_of_another_type_is_refused_by_name(build, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build()


def test_partial_text_uses_defaults():
    m, r = config_from_text("dim = 24\nheads = 2\nlr = 0.01\n")
    assert m.dim == 24 and m.heads == 2
    assert r.lr == 0.01
    assert m.depth == ModelConfig().depth


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="promt_len"):
        config_from_text("promt_len = 8\n")


def test_repeated_key_rejected():
    with pytest.raises(ConfigError, match="repeated"):
        config_from_text("dim = 24\ndim = 48\n")


def test_unparseable_value_rejected():
    with pytest.raises(ConfigError, match="dim"):
        config_from_text("dim = forty-eight\n")


def test_comments_and_blank_lines_ignored():
    m, _ = config_from_text("# architecture\n\ndim = 24\nheads = 2\n")
    assert m.dim == 24


def test_validation_catches_bad_geometry():
    with pytest.raises(ConfigError, match="image_size"):
        ModelConfig(image_size=15)
    with pytest.raises(ConfigError, match="heads"):
        ModelConfig(dim=16, heads=3)
    with pytest.raises(ConfigError, match="prompt"):
        ModelConfig(prompt_len=4, prompt_inst=5)
    with pytest.raises(ConfigError, match="lr"):
        RunConfig(lr=0.0)


# every int field of ModelConfig is a size, at least 1, but these three
_OTHER_FLOORS = ("num_classes", "prompt_len", "prompt_inst")
_SIZE_FIELDS = [f.name for f in dataclasses.fields(ModelConfig)
                if f.type in (int, "int") and f.name not in _OTHER_FLOORS]


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name", _SIZE_FIELDS)
def test_a_size_field_below_one_is_refused_by_name(name, value):
    # a field added later is a size unless listed above, so it cannot be left out
    with pytest.raises(ConfigError, match=f"^{name} must be >= 1, got {value}$"):
        config_from_text(f"{name} = {value}\n")


@pytest.mark.parametrize("config, changes, message", [
    (ModelConfig(), {"depth": 0}, "depth must be >= 1, got 0"),
    (ModelConfig(), {"prompt_inst": 9}, "prompt split invalid: prompt_inst 9 of prompt_len 8"),
    (RunConfig(), {"steps": 0}, "steps must be >= 1, got 0"),
    (RunConfig(), {"lr": math.nan}, "lr must be finite and > 0, got nan"),
])
def test_replace_checks_again_and_fields_cannot_be_set(config, changes, message):
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(config, **changes)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, *next(iter(changes.items())))


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_out_of_range_seed_rejected_when_parsed(seed):
    with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*32\)"):
        RunConfig(seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        config_from_text(f"seed = {seed}\n")
    assert RunConfig(seed=2**32 - 1).seed == 2**32 - 1


def test_presets_are_valid():
    tiny = tiny_config()
    assert (tiny.depth, tiny.dim, tiny.prompt_len, tiny.prompt_inst, tiny.latent_dim) == (2, 16, 4, 2, 4)
    full = default_config()
    assert (full.depth, full.dim, full.heads) == (4, 48, 3)
    assert full.prompt_inst + full.prompt_dom == full.prompt_len
