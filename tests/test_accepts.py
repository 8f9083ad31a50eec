"""config.ACCEPTS, the one declaration of what each command accepts, names
only runs, flags, config fields and keys that exist.

A stale entry checks and documents something no command has, and nothing
fails: perfbench's trace_report kept five deleted functions in its
SELF_GROUPS, and their metrics read 0."""

from operator import attrgetter

import pytest

from polarot import cli, config

COMMANDS = cli.build_parser().commands
# the runs cli dispatches: each command, and a sweep as "<[sweep] variable> sweep"
RUNS = set(COMMANDS) | {f"{variable} sweep" for variable in config.SWEEP_VARIABLES}


def test_every_run_is_one_cli_dispatches():
    assert set(config.ACCEPTS) <= RUNS, set(config.ACCEPTS) - RUNS


@pytest.mark.parametrize("command", [
    command for command, accepts in config.ACCEPTS.items()
    if "flags" in accepts or "needs" in accepts])
def test_every_flag_is_an_option_of_its_command(command):
    accepts = config.ACCEPTS[command]
    flags = {entry[0] for entry in accepts.get("flags", ())}
    flags |= {flag for entry in accepts.get("needs", ()) for flag in entry[:2]}
    options = COMMANDS[command]._option_string_actions
    assert flags <= set(options), flags - set(options)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_number_option_has_a_domain(command):
    # an int or float option without a domain here is judged, if at all, by a
    # library check mid-run, whose message names no flag
    numbers = {flag for flag, action in COMMANDS[command]._option_string_actions.items()
               if action.type in (int, float)}
    declared = {entry[0] for entry in config.ACCEPTS.get(command, {}).get("flags", ())}
    assert numbers <= declared, numbers - declared


@pytest.mark.parametrize("run", [run for run, accepts in config.ACCEPTS.items()
                                 if "unread" in accepts or "fixed" in accepts])
def test_every_field_and_key_exists(run):
    accepts = config.ACCEPTS[run]
    named = [pair for fields, _ in accepts.get("unread", ()) for pair in fields.items()]
    named += [(name, key) for name, key, _, _ in accepts.get("fixed", ())]
    default = config.ExperimentConfig()
    for name, key in named:
        attrgetter(name)(default)  # raises AttributeError for a field that is gone
        section, option = key[1:].split("] ")
        assert option in config._KEYS[section], key


def test_main_resolves_every_output_option():
    # the output flags main resolves and checks before a command runs are the
    # options that name a file to write: an --out* name, or help that says so;
    # a new output flag missing from cli.OUTPUTS would skip the path check
    writes = {flag for parser in COMMANDS.values()
              for flag, action in parser._option_string_actions.items()
              if flag.startswith("--out")
              or any(word in (action.help or "") for word in ("output", "write"))}
    assert writes == set(cli.OUTPUTS)


def test_no_command_has_two_output_flags():
    # main commits a command's output with one os.replace, so that exit 2
    # leaves no file new or changed; a second output file would need a second
    # rename, and a failed second rename would leave the first file in place
    outputs = {name: set(cli.OUTPUTS) & set(parser._option_string_actions)
               for name, parser in COMMANDS.items()}
    assert all(len(flags) <= 1 for flags in outputs.values()), outputs
