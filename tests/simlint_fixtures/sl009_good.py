# simlint-fixture-path: repro/scenarios/cli.py
"""Known-good fixture: knobs arrive as an argument, never from the environment.

Every module takes its knobs from a scenario config (``configs/*.toml``) or
from the ``--set`` override list its caller passes in; reading the process
environment is a violation anywhere (see ``sl009_bad.py``).  ``os`` itself
stays usable: only ``os.environ`` / ``os.getenv`` are banned.
"""

import os


def scenario_overrides(config_path, overrides=()):
    entries = [entry.strip() for entry in overrides if entry.strip()]
    return os.path.basename(config_path), entries
