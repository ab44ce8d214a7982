"""One fresh-process set-up: import mbaobf, load and admit the rules, then
print ``ready``.  ``run.py`` times this from spawn to that line."""

import workloads

workloads.set_up(workloads.import_program())
print("ready", flush=True)
