import re
from pathlib import Path

from polarot import config, measure

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_config_example_loads():
    blocks = re.findall(r"```ini\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    cfg = config.loads_config(blocks[0])
    assert config.config_hash(cfg) == "9b92c3b5d7dce136"
    assert cfg.detection == measure.Detection(1e5, 1.0, 1.0, 1.0, 0.0)


def test_readme_states_the_shipped_calibration_defaults():
    text = " ".join(README.split())
    sentence = re.search(r"Shipped calibration defaults: (.*?)\. ", text).group(1)
    numbers = [float(v) for v in re.findall(r"-?\d+(?:\.\d+)?", sentence)]
    assert numbers == [config.DEFAULT_SLOPE_DEG_PER_MOLAR, config.DEFAULT_PBS_A_DEG,
                       config.DEFAULT_PBS_B_DEG, config.DEFAULT_HWP_DEG,
                       config.DEFAULT_TRANSMISSION]


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
