import dataclasses
import re
from pathlib import Path

import pytest

from dptext.config import AppConfig, load_app_config
from dptext.errors import ConfigError
from dptext.mechanisms import MechanismConfig
from dptext.pipeline import LlmEndpointConfig


FULL_CONFIG = """
[paths]
vocab = v.txt
embeddings = e.txt
merges = m.txt
runs_dir = my-runs

[mechanism]
kind = topk
epsilon_em = 2.5
epsilon_lap = 1.5
laplace_sensitivity = 3.0
scoring_mode = paper-final
top_k = 40

[remote]
base_url = https://api.example/v1/chat
model_name = big-model
temperature = 0.7
max_output_tokens = 150
api_key_env_var = MY_KEY
timeout_s = 12
max_concurrent = 2

[restore]
base_url = http://localhost:8000/v1/chat
model_name = small-model

[attack]
k = 250
chunk_size = 32

[run]
seed = 99
n_docs = 4
"""


class TestLoadAppConfig:
    def test_defaults_without_file(self):
        cfg = load_app_config(None)
        assert cfg.mechanism.kind == "rantext"
        assert cfg.attack_k == 250
        assert cfg.seed is None

    def test_full_file(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(FULL_CONFIG)
        cfg = load_app_config(path)
        assert cfg.vocab_path == "v.txt"
        assert cfg.runs_dir == "my-runs"
        assert cfg.mechanism.kind == "topk"
        assert cfg.mechanism.epsilon_em == 2.5
        assert cfg.mechanism.epsilon_lap == 1.5
        assert cfg.mechanism.laplace_sensitivity == 3.0
        assert cfg.mechanism.scoring_mode == "paper-final"
        assert cfg.mechanism.top_k == 40
        assert cfg.remote.base_url == "https://api.example/v1/chat"
        assert cfg.remote.temperature == 0.7
        assert cfg.remote.api_key_env_var == "MY_KEY"
        assert cfg.remote.max_concurrent == 2
        assert cfg.restore.model_name == "small-model"
        # restoration endpoints default to greedy decoding
        assert cfg.restore.temperature == 0.0
        assert cfg.attack_k == 250
        assert cfg.attack_chunk_size == 32
        assert cfg.seed == 99
        assert cfg.n_docs == 4

    def test_remote_defaults_to_sampling_temperature(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[remote]\nbase_url = https://x/api\nmodel_name = m\n")
        cfg = load_app_config(path)
        assert cfg.remote.temperature == 0.5

    def test_zero_epsilon_survives_parsing(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[mechanism]\nepsilon_em = 0.0\nepsilon_lap = 1.0\n")
        cfg = load_app_config(path)
        assert cfg.mechanism.epsilon_em == 0.0

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_app_config("/nonexistent/cfg.ini")

    def test_invalid_number_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[mechanism]\nepsilon_em = lots\n")
        with pytest.raises(ConfigError, match="epsilon_em"):
            load_app_config(path)

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_epsilon_is_config_error(self, tmp_path, raw):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[mechanism]\nepsilon_em = {raw}\n")
        with pytest.raises(ConfigError, match=r"^\[mechanism\] epsilon_em"):
            load_app_config(path)

    @pytest.mark.parametrize("key", ["epsilon_lap", "laplace_sensitivity"])
    def test_infinite_noise_parameter_is_config_error(self, tmp_path, key):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[mechanism]\n{key} = inf\n")
        with pytest.raises(ConfigError, match=rf"^\[mechanism\] {key}"):
            load_app_config(path)

    def test_invalid_mechanism_value_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[mechanism]\nkind = quantum\n")
        with pytest.raises(ConfigError):
            load_app_config(path)

    def test_inline_comments_ignored(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\nseed = 5  # fixed for the demo\n")
        assert load_app_config(path).seed == 5

    @pytest.mark.parametrize("text, where", [
        # the CLI flag's spelling, not the key's: must not leave epsilon_em = 1.0
        ("[mechanism]\nepsilon = 8\n", "[mechanism] epsilon"),
        ("[remote]\nbase_url = https://x/api\nbase-url = y\n", "[remote] base-url"),
        ("[restore]\ntemprature = 0.3\n", "[restore] temprature"),
        ("[paths]\nvocab_path = v.txt\n", "[paths] vocab_path"),
        ("[attack]\nattack_k = 5\n", "[attack] attack_k"),
        ("[run]\nn = 5\n", "[run] n"),
    ])
    def test_unknown_key_is_config_error(self, tmp_path, text, where):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"unknown config key {where}")):
            load_app_config(path)

    def test_unknown_section_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[mechanisms]\nkind = topk\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[mechanisms\]"):
            load_app_config(path)

    @pytest.mark.parametrize("mech", [
        MechanismConfig(),
        MechanismConfig(kind="global", epsilon_em=0.0, epsilon_lap=0.25,
                        laplace_sensitivity=1.5, scoring_mode="paper-final", top_k=3),
    ])
    def test_every_mechanism_field_is_a_key(self, tmp_path, mech):
        lines = [f"{k} = {v}" for k, v in mech.to_snapshot().items() if v is not None]
        path = tmp_path / "cfg.ini"
        path.write_text("[mechanism]\n" + "\n".join(lines) + "\n")
        assert load_app_config(path).mechanism == mech

    def test_every_endpoint_field_is_a_key(self, tmp_path):
        endpoint = LlmEndpointConfig(
            base_url="https://x/api", model_name="m", temperature=0.25,
            max_output_tokens=7, api_key_env_var="K", timeout_s=1.5, max_concurrent=3,
        )
        lines = [f"{k} = {v}" for k, v in dataclasses.asdict(endpoint).items()]
        path = tmp_path / "cfg.ini"
        path.write_text("[remote]\n" + "\n".join(lines) + "\n")
        assert load_app_config(path).remote == endpoint

    def test_unset_endpoint_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[remote]\nbase_url = https://x/api\n"
                        "[restore]\nbase_url = http://localhost/v1\n")
        cfg = load_app_config(path)
        assert cfg.remote == LlmEndpointConfig("https://x/api", "default-model")
        assert cfg.restore == LlmEndpointConfig(
            "http://localhost/v1", "default-model", temperature=0.0
        )

    @pytest.mark.parametrize("name", ["remote", "restore"])
    def test_endpoint_section_without_base_url_is_config_error(self, tmp_path, name):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[{name}]\nmodel_name = m\n")
        with pytest.raises(ConfigError, match=rf"^\[{name}\] base_url is required$"):
            load_app_config(path)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        path = tmp_path / "cfg.ini"
        path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        cfg = load_app_config(path)
        assert cfg.merges_path == "merges.txt"
        assert cfg.mechanism.epsilon_lap == 2.0
        assert cfg.restore.model_name == "local-model"
        assert cfg.restore.temperature == 0.0

    def test_invalid_endpoint_value_names_the_section(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[restore]\nbase_url = http://x\nmax_concurrent = 0\n")
        with pytest.raises(ConfigError, match=r"^\[restore\] max_concurrent"):
            load_app_config(path)


class TestAppConfig:
    def test_resolved_seed_is_sticky(self):
        cfg = AppConfig()
        first = cfg.resolved_seed()
        assert cfg.resolved_seed() == first
        assert 0 <= first < 2**63

    def test_configured_seed_returned(self):
        cfg = AppConfig(seed=123)
        assert cfg.resolved_seed() == 123

    def test_require_paths_messages(self, tmp_path):
        cfg = AppConfig()
        with pytest.raises(ConfigError, match="no vocab file configured"):
            cfg.require_paths("vocab")
        cfg.vocab_path = str(tmp_path / "missing.txt")
        with pytest.raises(ConfigError, match="not found"):
            cfg.require_paths("vocab")
