import importlib
import pkgutil
import re
from pathlib import Path

import polarot
from polarot import cli, config, measure

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_config_example_loads():
    blocks = re.findall(r"```ini\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    cfg = config.loads_config(blocks[0])
    assert config.config_hash(cfg) == "90f4b62e39a6e6d0"
    assert cfg.detection == measure.Detection(1e5, 1.0, 1.0, 1.0)


def test_readme_states_the_shipped_calibration_defaults():
    text = " ".join(README.split())
    sentence = re.search(r"Shipped calibration defaults: (.*?)\. ", text).group(1)
    numbers = [float(v) for v in re.findall(r"-?\d+(?:\.\d+)?", sentence)]
    assert numbers == [config.DEFAULT_SLOPE_DEG_PER_MOLAR, config.DEFAULT_PBS_A_DEG,
                       config.DEFAULT_PBS_B_DEG, config.DEFAULT_HWP_DEG,
                       config.DEFAULT_TRANSMISSION]


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def readme_table(header):
    """The rows, as lists of cells, of the README table whose header row is
    `header`."""
    lines = README.split("\n")
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def test_readme_config_table_is_the_declaration():
    expected = []
    for run, accepts in config.ACCEPTS.items():
        for fields, instead in accepts.get("unread", ()):
            keys = ", ".join(f"`{key}`" for key in fields.values())
            expected.append([f"`{run}`", keys, "its default", instead])
        for _, key, values, why in accepts.get("fixed", ()):
            shown = " or ".join(f"`{v}`" if isinstance(v, str) else f"`{v:g}`"
                                for v in values)
            expected.append([f"`{run}`", f"`{key}`", shown, why])
    assert readme_table("| run | keys | accepted only at | because |") == expected


def test_readme_flag_tables_are_the_declaration():
    domains, needs = {}, []
    for command, accepts in config.ACCEPTS.items():
        for flag, domain, _, *why in accepts.get("flags", ()):
            entry = (flag, ": ".join([domain, *why]))
            domains.setdefault(entry, []).append(f"`{command}`")
        needs += [[f"`{command}`", f"`{flag}`", f"`{other}`", why]
                  for flag, other, why in accepts.get("needs", ())]
    assert readme_table("| commands | flag | must be |") == [
        [", ".join(commands), f"`{flag}`", domain]
        for (flag, domain), commands in domains.items()]
    assert readme_table("| command | flag | needs | because |") == needs


def test_readme_names_only_attributes_that_exist():
    # a backticked dotted name that starts with a polarot module, with or
    # without the package (`states.validate_state`, `polarot.sweeps`,
    # `sweeps._offsets`), names attributes that module has, so the README
    # cannot go on naming a deleted function
    modules = {info.name for info in pkgutil.iter_modules(polarot.__path__)}
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    checked, missing = 0, []
    for span in re.findall(r"`([^`]+)`", prose):
        name = re.match(r"(?:polarot\.)?([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)*)", span)
        if name is None or name.group(1) not in modules:
            continue
        value = importlib.import_module(f"polarot.{name.group(1)}")
        for attr in name.group(2).split(".")[1:]:
            if not hasattr(value, attr):
                missing.append(span)
                break
            value = getattr(value, attr)
        checked += 1
    assert checked > 50
    assert not missing, f"README names attributes that do not exist: {missing}"


def test_readme_names_only_flags_that_exist():
    # every --flag the README names, in a command line, a table or prose, is
    # an option of some subcommand, so the README cannot go on naming a
    # deleted flag; pip's --no-build-isolation, in the install line, is not
    # ours. And it names every option but argparse's help, which also keeps
    # the search from passing on an empty match
    defined = {option for parser in cli.build_parser().commands.values()
               for option in parser._option_string_actions} - {"-h", "--help"}
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", README)) - {"--no-build-isolation"}
    assert not named - defined, f"README names flags no command has: {named - defined}"
    assert not defined - named, f"README does not name the flags {defined - named}"
