"""Config text form: round trips, rejection of bad keys, preset sanity."""

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
        ModelConfig(image_size=15).validate()
    with pytest.raises(ConfigError, match="heads"):
        ModelConfig(dim=16, heads=3).validate()
    with pytest.raises(ConfigError, match="prompt"):
        ModelConfig(prompt_len=4, prompt_inst=5).validate()
    with pytest.raises(ConfigError, match="lr"):
        RunConfig(lr=0.0).validate()


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_out_of_range_seed_rejected_when_parsed(seed):
    with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*32\)"):
        RunConfig(seed=seed).validate()
    with pytest.raises(ConfigError, match="seed"):
        config_from_text(f"seed = {seed}\n")
    assert RunConfig(seed=2**32 - 1).validate().seed == 2**32 - 1


def test_presets_are_valid():
    tiny = tiny_config().validate()
    assert (tiny.depth, tiny.dim, tiny.prompt_len, tiny.prompt_inst, tiny.latent_dim) == (2, 16, 4, 2, 4)
    full = default_config().validate()
    assert (full.depth, full.dim, full.heads) == (4, 48, 3)
    assert full.prompt_inst + full.prompt_dom == full.prompt_len
