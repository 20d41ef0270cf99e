"""Start-up probe: the work a fresh ``seqrisk`` process does before its first
library call.

Run as ``python bench/probe.py <seqrisk arguments>`` with ``src`` on
``PYTHONPATH``: it imports the package, parses the arguments and loads the
chain spec they name, then writes one byte to standard output.  The
benchmark times the process from its start until that byte arrives.
"""

import json
import sys
from pathlib import Path

from seqrisk import cli, experiments

args = cli.build_parser().parse_args(sys.argv[1:])
if getattr(args, "spec", None):
    experiments.ChainSpec.from_dict(json.loads(Path(args.spec).read_text()))
sys.stdout.write("r")
sys.stdout.flush()
