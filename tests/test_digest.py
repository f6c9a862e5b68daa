"""The committed digest printout, scripts/digest_reports.txt, names today's
digest commands and the configs they run.

The printout is regenerated by hand (`python3 scripts/digest_reports.py >
scripts/digest_reports.txt`, about 11 s).  This check runs no command, so it
cannot see a report byte move, nor a changed command-line argument, which the
printout does not record; it fails when a digest command is added, removed,
renamed or reordered, or a config it writes changes, and the printout is not
regenerated.
"""

import hashlib
import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "digest_reports.py")
PRINTOUT = os.path.join(ROOT, "scripts", "digest_reports.txt")


def load_digest_script():
    spec = importlib.util.spec_from_file_location("digest_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_digest_names_the_digest_commands_and_configs():
    commands = load_digest_script()._commands()
    with open(PRINTOUT, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    exits = [line for line in lines if line.startswith("exit ")]
    assert exits == [f"exit 0  {name}" for name, *_ in commands]
    digests = {path: digest for digest, path in
               (line.split("  ", 1) for line in lines if not line.startswith("exit "))}
    for name, _, cfg, _ in commands:
        # the bytes main() writes to <name>.json before it runs the command
        written = json.dumps(cfg, indent=2, sort_keys=True).encode("utf-8")
        assert digests[name + ".json"] == hashlib.sha256(written).hexdigest(), name
